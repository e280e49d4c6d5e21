"""What a process imports: a check loads only the modules checking needs,
and the package's lazy exports resolve on first use."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import aisemiring
from aisemiring import SizeLimitError, builtin, parse_identity, semiring_to_json

SRC = str(Path(aisemiring.__file__).resolve().parents[1])

# the package's exports, eager and lazy
EXPORTS = """
    BUILTIN_NAMES AxiomViolation Congruence CongruenceViolation FiniteSemiring
    adjoin_zero builtin find_isomorphism is_isomorphic quotient
    semiring_from_json semiring_to_json tables_from_json validate_ai_semiring
    validate_congruence
    CrossValReport Verdict cross_validate holds_bruteforce holds_d2
    holds_s0_lift holds_s7 holds_s7_0 random_identity syntactic_decider
    AxiomSet ChainVerdict DerivationChain DerivationStep SearchBounds
    SearchOutcome StepMismatch apply_step axioms_from_json axioms_to_json
    chain_from_json search_derivation verify_chain
    SizeLimitError
    OddCycleSearch TermGraph odd_cycle term_graph
    ParseError parse_identity parse_term parse_word
    Identity Term Word components content delta_sets evaluate
    filter_content_subset format_word is_linear substitute
    ConditionCheck ConditionReport FactCheck WitnessPair WitnessReport
    check_axiom_conditions check_witness_facts make_witness
""".split()

# modules a check or delta command on a builtin semiring never calls;
# argparse (and the gettext it imports) only reads argv that cli's table
# reader refuses: help, abbreviations, --opt=value and usage errors
UNUSED_BY_CHECK = {
    "argparse",
    "gettext",
    "json",
    "json.decoder",
    "json.scanner",
    "heapq",
    "aisemiring.derivation",
    "aisemiring.witness",
    "aisemiring.graphs",
}

# Runs each ";"-separated argv through cli.main in one fresh interpreter,
# then prints the exit codes and every module whose code has run: the
# package's lazy submodules sit in sys.modules from the start, as importlib
# lazy modules, until their first attribute read.
RUNNER = """\
import io, sys
from importlib.util import _LazyModule
from aisemiring.cli import main
args, codes = sys.argv[1:], []
while args:
    cut = args.index(";") if ";" in args else len(args)
    stdout, sys.stdout = sys.stdout, io.StringIO()
    codes.append(main(args[:cut]))
    sys.stdout = stdout
    args = args[cut + 1:]
print(*codes)
print(*sorted(n for n, m in sys.modules.items() if not isinstance(m, _LazyModule)))
"""


def _python(script: str, *args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _run_commands(*argvs: list[str]) -> tuple[list[int], set[str]]:
    """Exit codes and the modules run after running argvs in one fresh process."""
    args = [a for argv in argvs for a in (*argv, ";")][:-1]
    codes, modules = _python(RUNNER, *args)
    return [int(c) for c in codes.split()], set(modules.split())


def test_check_delta_validate_and_crossval_load_no_json_heapq_derivation_witness_or_graphs():
    codes, loaded = _run_commands(
        ["check", "--semiring", "S7_0", "--method", "both", "--json",
         "--identity", "x^2+y == x^2+y+y^2"],
        ["check", "--semiring", "D2", "--method", "both", "--json", "--commutative",
         "--identity", "x*y == y*x"],
        ["delta", "--term", "x*y + y*z", "--json"],
        ["validate", "--semiring", "S7_0", "--json"],
        ["crossval", "--semiring", "S7_0", "--samples", "20", "--seed", "1", "--json"],
    )
    assert codes == [1, 0, 0, 0, 0]
    assert "aisemiring.cli" in loaded
    assert not loaded & UNUSED_BY_CHECK


def test_derive_search_loads_derivation_and_witness_loads_witness_and_graphs(tmp_path):
    axioms = tmp_path / "axioms.json"
    axioms.write_text(
        '{"commutative": false, "axioms": [{"name": "sq", "identity": "x == x + x*x"}]}',
        encoding="utf-8",
    )
    codes, loaded = _run_commands(
        ["derive", "search", "--axioms", str(axioms), "--goal", "x == x + x*x", "--json"]
    )
    assert codes == [0]
    assert "aisemiring.derivation" in loaded
    assert not loaded & {"aisemiring.witness", "aisemiring.graphs", "argparse", "gettext"}

    codes, loaded = _run_commands(["witness", "--n", "1", "--json"])
    assert codes == [0]
    assert {"aisemiring.witness", "aisemiring.graphs"} <= loaded
    assert not loaded & {"aisemiring.derivation", "argparse", "gettext"}


JSON_MODULES = {"json", "json.decoder", "json.scanner", "json.encoder"}


def test_well_formed_files_are_read_without_json(tmp_path):
    # json's C scanner decodes them; json itself compiles regexes on import
    from aisemiring.derivation import AxiomSet, chain_to_dict, search_derivation

    semiring = tmp_path / "s7_0.json"
    semiring.write_text(semiring_to_json(builtin("S7_0")), encoding="utf-8")
    axioms = tmp_path / "axioms.json"
    axioms.write_text(
        '{"commutative": false, "axioms": [{"name": "sq", "identity": "x == x + x*x"}]}',
        encoding="utf-8",
    )
    goal = "x*y == x*y + x*y*x*y"
    sigma = AxiomSet([("sq", parse_identity("x == x + x*x"))])
    chain = search_derivation(sigma, parse_identity(goal)).chain
    (tmp_path / "chain.json").write_text(
        "\n" + json.dumps(chain_to_dict(chain), indent="\t") + "\r\n", encoding="utf-8"
    )
    codes, loaded = _run_commands(
        ["check", "--semiring", str(semiring), "--method", "oracle",
         "--identity", "x^2+y == x^2+y+y^2"],
        ["check", "--semiring", str(semiring), "--method", "oracle", "--json",
         "--identity", "x + y == y + x"],
        ["validate", "--semiring", str(semiring), "--json"],
        ["derive", "search", "--axioms", str(axioms), "--goal", goal],
        ["derive", "verify", "--axioms", str(axioms), "--chain", str(tmp_path / "chain.json")],
    )
    assert codes == [1, 0, 0, 0, 0]
    assert not loaded & JSON_MODULES


# Runs each ";"-separated argv through cli.main in a fresh interpreter,
# without json's C accelerator _json when the first argument says so, and
# prints whether algebra fell back to json's Python scanner, each exit code
# and stdout, and json_document's error on malformed text.
FALLBACK_RUNNER = """\
import io, sys
if sys.argv[1] == "without":
    sys.modules["_json"] = None
from aisemiring import algebra
from aisemiring.cli import main
args, out = sys.argv[2:], [algebra._scan_once is None]
while args:
    cut = args.index(";") if ";" in args else len(args)
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = main(args[:cut])
    out.append((code, sys.stdout.getvalue()))
    sys.stdout = stdout
    args = args[cut + 1:]
try:
    algebra.json_document("{bad")
except ValueError as exc:
    out.append(str(exc))
print(repr(out))
"""


def test_interpreter_without_the_c_scanner_gives_the_same_outputs(tmp_path):
    semiring = tmp_path / "s7_0.json"
    semiring.write_text(semiring_to_json(builtin("S7_0")), encoding="utf-8")
    axioms = tmp_path / "axioms.json"
    axioms.write_text(
        '{"commutative": false, "axioms": [{"name": "sq", "identity": "x == x + x*x"}]}',
        encoding="utf-8",
    )
    argvs = [
        ["validate", "--semiring", str(semiring)],
        ["check", "--semiring", str(semiring), "--method", "oracle",
         "--identity", "x^2+y == x^2+y+y^2"],
        ["derive", "search", "--axioms", str(axioms), "--goal", "x*y == x*y + x*y*x*y", "--json"],
        ["witness", "--n", "2", "--json"],
    ]
    args = [a for argv in argvs for a in (*argv, ";")][:-1]
    (with_c,) = _python(FALLBACK_RUNNER, "with", *args)
    (without_c,) = _python(FALLBACK_RUNNER, "without", *args)
    with_c, without_c = ast.literal_eval(with_c), ast.literal_eval(without_c)
    assert (with_c[0], without_c[0]) == (False, True)
    assert [code for code, _ in with_c[1:-1]] == [0, 1, 0, 0]
    assert without_c[1:] == with_c[1:]
    assert with_c[-1] == (
        "not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"
    )


@pytest.mark.parametrize(
    "text",
    ['{"elements": ["a"]', '["tab\there"]', "\ufeff{}", "{} x", "", "9" * 4_301, "[" * 100_000],
    ids=["truncated", "control-character", "bom", "extra-data", "empty", "huge-int", "deep"],
)
def test_only_a_malformed_file_loads_json_to_word_its_error(tmp_path, text):
    junk = tmp_path / "junk.json"
    junk.write_text(text, encoding="utf-8")
    codes, loaded = _run_commands(["validate", "--semiring", str(junk)])
    assert codes == [2]
    assert {"json", "json.decoder"} <= loaded
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        message = f"error: not valid JSON: {exc}\n"
    done = subprocess.run(
        [sys.executable, "-m", "aisemiring", "validate", "--semiring", str(junk)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", message)


def test_argv_the_table_reader_refuses_loads_argparse():
    codes, loaded = _run_commands(["witness", "--n=1"])
    assert codes == [0]
    assert "argparse" in loaded


def test_every_export_resolves():
    for name in EXPORTS:
        assert getattr(aisemiring, name) is not None
        assert name in dir(aisemiring)
        namespace = {}
        exec(f"from aisemiring import {name}", namespace)
        assert namespace[name] is getattr(aisemiring, name)
    namespace = {}
    exec("from aisemiring import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert set(aisemiring.__all__) == set(EXPORTS)
    for module in ("derivation", "graphs", "witness"):
        assert getattr(aisemiring, module) is sys.modules[f"aisemiring.{module}"]
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        aisemiring.nothing  # noqa: B018


def test_every_traced_function_exists():
    # the benchmark's tracer wraps these by name; one that is renamed or
    # removed breaks a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for layer, name in tracing.TRACED:
        module = importlib.import_module(f"aisemiring.{layer}")
        fn = getattr(module, name, None)
        # builtin is a function behind functools.cache
        assert inspect.isfunction(inspect.unwrap(fn)), f"{layer}.{name}"


def test_every_size_limit_names_a_constant_of_its_module():
    # the message is worded once, in errors.py: a raise site passes the
    # name of the guard constant it checks and numbers, never text
    guards = set()
    for path in sorted(Path(aisemiring.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.isupper()
        }
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "SizeLimitError"):
                continue
            where = f"{path.name}:{call.lineno}"
            first = call.args[0] if call.args else None
            assert isinstance(first, ast.Constant) and first.value in constants, where
            values = [*call.args, *(k.value for k in call.keywords)]
            assert not any(isinstance(v, ast.JoinedStr) for v in values), where
            guards.add(first.value)
    assert guards == {
        "ORACLE_NODE_BUDGET", "DELTA_WORK_CAP", "ISO_CARRIER_CAP", "ORACLE_VARIABLE_LIMIT",
        "STEP_WORD_CAP", "CHAIN_WORD_CAP",
    }


def test_size_limit_error_pickles_with_its_fields():
    error = SizeLimitError("DELTA_WORK_CAP", 250_002, 250_000, "word visits")
    exc = pickle.loads(pickle.dumps(error))
    assert (exc.guard, exc.done, exc.limit, exc.counted) == (
        "DELTA_WORK_CAP", 250_002, 250_000, "word visits"
    )
    assert str(exc) == "capped by DELTA_WORK_CAP: 250002 word visits, limit 250000"


def test_lazy_exports_listed_before_their_modules_load():
    script = (
        "import sys, aisemiring\n"
        "listed = set(dir(aisemiring))\n"
        "from importlib.util import _LazyModule\n"
        "cold = all(isinstance(sys.modules[m], _LazyModule) for m in "
        "('aisemiring.derivation', 'aisemiring.witness', 'aisemiring.graphs'))\n"
        "from aisemiring import *\n"
        "print(cold, AxiomSet.__module__, TermGraph.__module__, make_witness.__module__)\n"
        "print(*sorted(listed))\n"
    )
    first, listed = _python(script)
    assert first.split() == [
        "True", "aisemiring.derivation", "aisemiring.graphs", "aisemiring.witness"
    ]
    assert set(EXPORTS) | {"derivation", "graphs", "witness"} <= set(listed.split())


def test_lazy_submodules_sit_in_sys_modules_and_run_on_first_read():
    # code that looks modules up in sys.modules (pickle, mock.patch, a
    # tracer) finds them; a name rebound in graphs before witness runs is
    # the one witness imports
    script = (
        "import sys, aisemiring\n"
        "from importlib.util import _LazyModule\n"
        "graphs = sys.modules['aisemiring.graphs']\n"
        "print(isinstance(graphs, _LazyModule), aisemiring.graphs is graphs)\n"
        "term_graph = graphs.term_graph\n"
        "graphs.term_graph = wrapped = lambda t: term_graph(t)\n"
        "witness = sys.modules['aisemiring.witness']\n"
        "print(isinstance(graphs, _LazyModule), vars(witness)['term_graph'] is wrapped)\n"
    )
    assert _python(script) == ["True True", "False True"]
