import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aisemiring
from aisemiring import (
    SearchBounds,
    Verdict,
    builtin,
    cross_validate,
    parse_term,
    semiring_to_json,
)
from aisemiring.algebra import _json_text
from aisemiring.cli import (
    COMMANDS,
    _exact_args,
    build_parser,
    cmd_axiom_check,
    cmd_check,
    cmd_crossval,
    cmd_delta,
    cmd_derive_search,
    cmd_derive_verify,
    cmd_validate,
    cmd_witness,
    main,
)
from aisemiring.terms import delta_key, delta_sets


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_both_methods_agree_on_failing_identity(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--semiring",
            "S7_0",
            "--identity",
            "x^2+y == x^2+y+y^2",
            "--method",
            "both",
        )
        assert code == 1
        assert "oracle: fails" in out
        assert "syntactic: fails" in out
        assert "agreement: yes" in out

    def test_holding_identity_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--semiring",
            "S7",
            "--identity",
            "x^2+y == x^2*y^2",
            "--method",
            "both",
        )
        assert code == 0
        assert "agreement: yes" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--semiring",
            "S7_0",
            "--identity",
            "x^2+y == x^2+y+y^2",
            "--method",
            "both",
            "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["agreement"] is True
        assert doc["results"]["oracle"]["holds"] is False
        assert doc["results"]["oracle"]["witness"] == {"x": "∞", "y": "a"}
        assert doc["results"]["oracle"]["stats"] == {
            "nodes": 10, "memo_hits": 0, "top_pruned": 2, "settled_pruned": 0
        }
        assert "stats" not in doc["results"]["syntactic"]

    def test_json_stats_in_report_order(self, capsys):
        # dict equality ignores order; the printed keys follow ORACLE_STATS
        _, out, _ = run(
            capsys, "check", "--semiring", "S7_0", "--identity", "x^2+y == x^2+y+y^2", "--json"
        )
        stats = json.loads(out)["results"]["oracle"]["stats"]
        assert list(stats) == ["nodes", "memo_hits", "top_pruned", "settled_pruned"]

    def test_lifted_check_searches_the_cover_once(self, capsys, searched):
        # u ≈ u+q on the 21-cycle: the one S7 component D ≈ D+q has D = u,
        # and the family of u+q follows from that of u
        cycle = " + ".join(f"x{i}*x{i % 21 + 1}" for i in range(1, 22))
        q = "*".join(f"x{i}" for i in range(1, 22))
        code, out, _ = run(
            capsys,
            "check",
            "--semiring",
            "S7_0",
            "--identity",
            f"{cycle} == {cycle} + {q}",
            "--method",
            "syntactic",
            "--commutative",
        )
        assert code == 0
        assert "syntactic: holds" in out
        assert searched == [parse_term(cycle, commutative=True)]

    def test_oracle_is_default_method(self, capsys):
        code, out, _ = run(
            capsys, "check", "--semiring", "D2", "--identity", "x == x + x"
        )
        assert code == 0
        assert "oracle: holds" in out
        assert "syntactic" not in out

    def test_semiring_file(self, capsys, tmp_path):
        path = tmp_path / "s7.json"
        path.write_text(semiring_to_json(builtin("S7")), encoding="utf-8")
        code, out, _ = run(
            capsys, "check", "--semiring", str(path), "--identity", "x^2+y == x^2*y^2"
        )
        assert code == 0

    def test_identity_from_file(self, capsys, tmp_path):
        path = tmp_path / "ident.txt"
        path.write_text("x^2+y == x^2*y^2\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "check", "--semiring", "S7", "--identity", str(path)
        )
        assert code == 0

    def test_a_trailing_slash_names_no_file(self, capsys, tmp_path):
        # as for the OS, "name/" is no file: the semiring is unknown and the
        # identity text is parsed as it stands
        semiring = tmp_path / "s7.json"
        semiring.write_text(semiring_to_json(builtin("S7")), encoding="utf-8")
        ident = tmp_path / "ident.txt"
        ident.write_text("x^2+y == x^2*y^2\n", encoding="utf-8")
        code, out, err = run(
            capsys, "check", "--semiring", f"{semiring}/", "--identity", "x == x"
        )
        assert (code, out) == (2, "")
        assert f"unknown semiring '{semiring}/'" in err
        code, out, err = run(capsys, "check", "--semiring", "S7", "--identity", f"{ident}/")
        assert (code, out) == (2, "")
        assert err.startswith("error: unexpected character '/'")

    def test_unknown_semiring(self, capsys):
        code, _, err = run(
            capsys, "check", "--semiring", "nope", "--identity", "x == x"
        )
        assert code == 2
        # the builtin names in BUILTIN_NAMES order, as crossval lists them
        assert err == (
            "error: unknown semiring 'nope': not one of S7, S7_0, D2, trivial and no such file\n"
        )

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys, "check", "--semiring", "S7", "--identity", "x^0 == x"
        )
        assert code == 2
        assert "column" in err

    def test_file_semiring_needs_oracle_method(self, capsys, tmp_path):
        path = tmp_path / "s7.json"
        path.write_text(semiring_to_json(builtin("S7")), encoding="utf-8")
        code, _, err = run(
            capsys,
            "check",
            "--semiring",
            str(path),
            "--identity",
            "x == x",
            "--method",
            "syntactic",
        )
        assert code == 2
        assert "no syntactic decider" in err

    def test_semiring_file_failing_the_axioms(self, capsys, tmp_path):
        # 1 + 1 = 0, so addition is not idempotent at the element 1
        path = tmp_path / "bad.json"
        path.write_text(
            '{"elements": ["0","1"], "add": [["0","1"],["1","0"]], "mul": [["0","0"],["0","1"]]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check", "--semiring", str(path), "--identity", "x == x")
        assert (code, out) == (2, "")
        assert err == f"error: semiring file {path}: additive idempotency fails at (1)\n"

    def test_missing_decider_fails_before_oracle(self, capsys, tmp_path, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr("aisemiring.cli.holds_bruteforce", no_oracle)
        path = tmp_path / "s7_0.json"
        path.write_text(semiring_to_json(builtin("S7_0")), encoding="utf-8")
        code, _, err = run(
            capsys,
            "check",
            "--semiring",
            str(path),
            "--identity",
            "x*y == y*x",
            "--method",
            "both",
        )
        assert code == 2
        assert "no syntactic decider" in err

    def test_inline_identity_longer_than_a_file_name(self, capsys):
        word = "*".join(["x", "y"] * 70)
        assert len(word) > 255
        code, out, _ = run(
            capsys, "check", "--semiring", "S7", "--identity", f"{word} + y == y + {word}"
        )
        assert code == 0
        assert "oracle: holds" in out

    @pytest.mark.parametrize(
        "text, bad",
        [("x == x\0", "'\\x00'"), ("x*" * 200 + "x == (x", "'('")],
        ids=["nul", "longer-than-name-max"],
    )
    def test_identity_no_file_can_have_reaches_the_parser(self, capsys, text, bad):
        # no file name holds a NUL or is longer than NAME_MAX: the text is
        # read inline, and the parser rejects it
        code, out, err = run(capsys, "check", "--semiring", "S7", "--identity", text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unexpected character {bad}")

    def test_huge_exponent_exits_two(self, capsys):
        code, _, err = run(
            capsys, "check", "--semiring", "S7", "--identity", "x^3000000 == x"
        )
        assert code == 2
        assert "longer than" in err


    def test_oracle_cap_with_a_huge_assignment_count(self, capsys, tmp_path):
        # 4^7200 assignments, but the memo settles it in a few nodes per variable
        side = " + ".join(f"v{i}" for i in range(7200))
        path = tmp_path / "wide.txt"
        path.write_text(f"{side} == {side} + v0*v1\n")
        code, out, err = run(
            capsys, "check", "--semiring", "S7_0", "--method", "oracle", "--identity", str(path)
        )
        assert code == 1
        assert not err
        witness = out.splitlines()[3]
        assert witness.startswith("  witness: v0=a, v1=a, ")

    def test_oracle_node_budget_exits_two(self, capsys, monkeypatch):
        # every word is on one side only, so a subtree is settled only
        # where each open word has a letter valued ∞: the search that
        # shows the identity holds visits 200 nodes
        monkeypatch.setattr("aisemiring.deciders.ORACLE_NODE_BUDGET", 20)
        code, out, err = run(
            capsys, "check", "--semiring", "S7_0", "--identity", "x*y + z*w == y*x + w*z"
        )
        assert code == 2
        assert not out
        assert err == "error: capped by ORACLE_NODE_BUDGET: 21 nodes visited, limit 20\n"

    def test_commutative_identity_over_noncommutative_table(self, capsys, tmp_path):
        # + is max and x*y = x: a valid ai-semiring whose product does not commute
        path = tmp_path / "left_zero.json"
        path.write_text(
            json.dumps(
                {"elements": ["p", "q"], "add": [["p", "q"], ["q", "q"]], "mul": [["p", "p"], ["q", "q"]]}
            ),
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "check", "--semiring", str(path), "--identity", "x*y == y*x", "--commutative"
        )
        assert code == 2
        assert "commutative multiplication" in err
        code, out, _ = run(capsys, "check", "--semiring", str(path), "--identity", "x*y == y*x")
        assert code == 1
        assert "witness: x=p, y=q" in out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text() | st.integers() | st.booleans() | st.none(), inner, max_size=4),
    max_leaves=12,
)


class TestJsonText:
    @given(JSON_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)

    def test_same_errors_as_json_dumps(self):
        for value in ({(1, 2): 3}, {1: object()}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2, ensure_ascii=False)
            with pytest.raises(TypeError):
                _json_text(value)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_parsed_state_leaks_between_calls(self, capsys):
        code, out, _ = run(
            capsys, "check", "--commutative", "--json", "--semiring", "S7", "--identity", "y*x == x*y"
        )
        assert code == 0
        assert json.loads(out)["identity"] == "x*y == x*y"
        code, out, _ = run(capsys, "check", "--semiring", "S7", "--identity", "y*x == x*y")
        assert code == 0
        # text, not JSON, and the words kept in the order they were written
        assert out.splitlines()[0] == "identity: y*x == x*y"
        assert "method" not in out


def _parsers(parser, path=()):
    """(command path, parser) for the parser and each subparser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, path + (name,))


# argv tokens drawn from the grammar as argparse declares it
PARSERS = list(_parsers(build_parser()))
OPTIONS = sorted({s for _, p in PARSERS for a in p._actions for s in a.option_strings})
CHOICES = sorted({str(c) for _, p in PARSERS for a in p._actions for c in a.choices or ()})
ABBREVIATIONS = sorted({s[:k] for s in OPTIONS if s.startswith("--") for k in (3, len(s) - 1)})
EQUALS_FORMS = sorted({f"{s}={v}" for s in OPTIONS for v in ("3", "x")})
VALUES = ["-h", "--", "", "-1", "5", "x", "x == x", "bogus", *CHOICES]


def _well_formed_piece(action):
    """An option of the action, followed by a value unless it is a flag."""
    name = st.sampled_from(action.option_strings)
    if action.nargs == 0:
        return st.tuples(name)
    return st.tuples(name, st.sampled_from([v for v in VALUES if not v.startswith("-")]))


def _typed(args):
    """A namespace's attributes with their types: Namespace equality takes True for 1."""
    return {key: (type(value), value) for key, value in vars(args).items()}


@st.composite
def grammar_argv(draw):
    path, parser = draw(st.sampled_from(PARSERS))
    own = [
        a for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]
    value = st.sampled_from(VALUES)
    if own and draw(st.booleans()):  # options of this command with plain values
        piece = st.sampled_from(own).flatmap(_well_formed_piece)
    else:
        option = st.sampled_from(OPTIONS + ABBREVIATIONS + EQUALS_FORMS)
        piece = st.tuples(option, value) | st.tuples(option) | st.tuples(value)
    pieces = draw(st.lists(piece, max_size=8))
    if draw(st.booleans()):  # every required option once, so that whole argv occur
        pieces += [draw(_well_formed_piece(a)) for a in own if a.required]
    pieces = draw(st.permutations(pieces))
    return [*path, *(token for piece in pieces for token in piece)]


@functools.cache
def _reference_parser() -> argparse.ArgumentParser:
    """The grammar as argparse declared it before COMMANDS existed, kept
    verbatim and frozen: the parser built from COMMANDS must read, print and
    refuse exactly what this one does."""
    parser = argparse.ArgumentParser(
        prog="aisemiring",
        description="Decide identities in finite additively idempotent semirings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    mode_flag = argparse.ArgumentParser(add_help=False)
    mode_flag.add_argument(
        "--commutative",
        action="store_true",
        help="read words as commutative (letters sorted)",
    )

    p = sub.add_parser(
        "check",
        parents=[json_flag, mode_flag],
        help="decide an identity in a semiring",
    )
    p.add_argument("--semiring", required=True, help="builtin name or JSON file")
    p.add_argument("--identity", required=True, help="identity text or file")
    p.add_argument(
        "--method",
        choices=("oracle", "syntactic", "both"),
        default="oracle",
        help="decision route (default: oracle)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "delta",
        parents=[json_flag, mode_flag],
        help="compute the delta-set family of a term",
    )
    p.add_argument("--term", required=True)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser(
        "witness",
        parents=[json_flag],
        help="check the facts of the n-th odd-cycle witness pair",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="run the brute-force check even beyond the default size limit",
    )
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "axiom-check",
        parents=[json_flag, mode_flag],
        help="check a candidate axiom against the structural conditions",
    )
    p.add_argument("--identity", required=True)
    p.set_defaults(func=cmd_axiom_check)

    p = sub.add_parser("derive", help="verify or search derivation chains")
    derive_sub = p.add_subparsers(dest="derive_command", required=True)

    p2 = derive_sub.add_parser(
        "verify", parents=[json_flag], help="replay a chain file against an axiom file"
    )
    p2.add_argument("--axioms", required=True)
    p2.add_argument("--chain", required=True)
    p2.set_defaults(func=cmd_derive_verify)

    p2 = derive_sub.add_parser(
        "search", parents=[json_flag], help="breadth-first search for a derivation"
    )
    p2.add_argument("--axioms", required=True)
    p2.add_argument("--goal", required=True)
    p2.add_argument("--max-depth", type=int, default=4)
    p2.add_argument("--max-words", type=int, default=8)
    p2.add_argument("--max-len", type=int, default=8)
    p2.add_argument("--max-image-words", type=int, default=1)
    p2.set_defaults(func=cmd_derive_search)

    p = sub.add_parser(
        "validate", parents=[json_flag], help="axiom-check a semiring file"
    )
    p.add_argument("--semiring", required=True, help="JSON file or builtin name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "crossval",
        parents=[json_flag, mode_flag],
        help="compare a syntactic decider against the oracle on random identities",
    )
    p.add_argument("--semiring", required=True, help="builtin name")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vars", type=int, default=4)
    p.add_argument("--max-words", type=int, default=4)
    p.add_argument("--max-len", type=int, default=4)
    p.set_defaults(func=cmd_crossval)

    return parser


def _parse(parser, argv):
    """What parser.parse_args(argv) does: the typed namespace, or the exit
    code of a SystemExit, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = _typed(parser.parse_args(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _table_options(table):
    """Every (option string, keywords) pair declared in a COMMANDS table."""
    for _, handler, options in table.values():
        if isinstance(handler, dict):
            yield from _table_options(handler)
        yield from options


PINNED_USAGE_ERRORS = [
    ["check", "--semiring", "S7", "--identity", "x", "--method", "bogus"],
    ["witness", "--n", "x"],
    ["check", "--semiring", "S7"],
]


class TestGrammarMatchesReference:
    def test_same_command_paths_and_help(self):
        ours, reference = list(_parsers(build_parser())), list(_parsers(_reference_parser()))
        assert [path for path, _ in ours] == [path for path, _ in reference]
        assert len(ours) == 10
        for (path, parser), (_, frozen) in zip(ours, reference):
            assert parser.format_help() == frozen.format_help(), path

    @pytest.mark.parametrize("argv", PINNED_USAGE_ERRORS)
    def test_same_usage_errors(self, argv):
        result = _parse(build_parser(), argv)
        assert result[0] == ("exit", 2)
        assert result == _parse(_reference_parser(), argv)

    @settings(max_examples=500)
    @given(grammar_argv())
    def test_same_reading_of_drawn_argv(self, argv):
        assert _parse(build_parser(), argv) == _parse(_reference_parser(), argv)

    def test_options_are_of_the_two_kinds_exact_args_reads(self):
        for option, keywords in _table_options(COMMANDS):
            if "action" in keywords:
                assert keywords == {"action": "store_true", "help": keywords["help"]}, option
            else:
                assert keywords.keys() <= {"type", "choices", "default", "required", "help"}, option


class TestExactArgv:
    @settings(max_examples=500)
    @given(grammar_argv())
    def test_reads_what_argparse_reads(self, argv):
        args = _exact_args(argv)
        if args is not None:
            assert _typed(build_parser().parse_args(argv)) == _typed(args)

    def test_repeated_option_keeps_last_value(self):
        argv = ["witness", "--n", "3", "--json", "--n", "4", "--json"]
        assert _typed(_exact_args(argv)) == _typed(build_parser().parse_args(argv))
        assert _exact_args(argv).n == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--semiring", "S7", "--identity", "x == x", "-h"],
            ["check", "--sem", "S7", "--identity", "x == x"],
            ["witness", "--n=3"],
            ["witness", "--", "--n", "3"],
            ["witness", "--n", "-1"],
            ["witness", "--n", "x"],
            ["check", "--semiring", "S7", "--identity", "x == x", "--method", "bogus"],
            ["check", "--semiring", "S7"],
            ["derive", "--axioms", "a.json"],
            [],
        ],
    )
    def test_other_argv_goes_to_argparse(self, argv):
        assert _exact_args(argv) is None

    def test_abbreviation_accepted(self, capsys):
        code, out, _ = run(capsys, "check", "--sem", "S7", "--identity", "x == x")
        assert code == 0
        assert out.splitlines()[:2] == ["identity: x == x", "semiring: S7"]

    def test_equals_form_accepted(self, capsys):
        code, out, _ = run(capsys, "witness", "--n=3")
        assert code == 0
        assert out.startswith("witness n=3\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["check", "--semiring", "S7", "--identity", "x", "--method", "bogus"],
                "argument --method: invalid choice: 'bogus'",
            ),
            (["witness", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (
                ["check", "--semiring", "S7"],
                "the following arguments are required: --identity",
            ),
        ],
    )
    def test_usage_errors_exit_two_with_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(f"usage: aisemiring {argv[0]} ")
        assert message in captured.err

    def test_negative_n_reaches_make_witness(self, capsys):
        code, out, err = run(capsys, "witness", "--n", "-1")
        assert code == 2
        assert not out
        assert "at least 1" in err

    def test_benchmark_shapes_skip_argparse(self, capsys, tmp_path, monkeypatch):
        def no_argparse(argv=None, namespace=None):
            raise AssertionError(f"argparse read {argv}")

        monkeypatch.setattr(build_parser(), "parse_args", no_argparse)
        table = tmp_path / "s7.json"
        table.write_text(semiring_to_json(builtin("S7")), encoding="utf-8")
        axiom = tmp_path / "axiom.txt"
        axiom.write_text("x*y == x*y + y*x", encoding="utf-8")
        axioms = tmp_path / "axioms.json"
        axioms.write_text(
            json.dumps({"axioms": [{"name": "ax1", "identity": "x == x + x*x"}]}),
            encoding="utf-8",
        )
        both = ["check", "--semiring", "S7_0", "--method", "both", "--json"]
        cases = [
            (both + ["--identity", "x^2+y == x^2+y+y^2"], 1),
            (both + ["--identity", "y*x == x*y", "--commutative"], 0),
            (["check", "--semiring", str(table), "--method", "oracle", "--json",
              "--identity", "x^2+y == x^2*y^2"], 0),
            (["witness", "--n", "2", "--oracle", "--json"], 0),
            (["witness", "--n", "4", "--json"], 0),
            (["delta", "--term", "x*y + y*z", "--json"], 0),
            (["axiom-check", "--identity", str(axiom), "--commutative", "--json"], None),
            (["derive", "search", "--axioms", str(axioms), "--goal", "x*y == x*y + x*y*x*y",
              "--json", "--max-depth", "2", "--max-words", "4", "--max-len", "4"], 0),
        ]
        for argv, expected in cases:
            code, out, err = run(capsys, *argv)
            assert not err
            assert code in (0, 1) if expected is None else code == expected
            assert isinstance(json.loads(out), dict)

    def test_python_m_reads_sys_argv(self):
        src = str(Path(aisemiring.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}

        def python_m(*argv):
            return subprocess.run(
                [sys.executable, "-m", "aisemiring", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        done = python_m("check", "--semiring", "S7", "--identity", "x == x")
        assert done.returncode == 0
        assert "oracle: holds" in done.stdout
        done = python_m("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: aisemiring ")
        done = python_m("check", "--semiring", "S7")
        assert done.returncode == 2
        assert "required: --identity" in done.stderr


class TestHashSeedDeterminism:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the same verdicts, first witnesses, chains and counts in fresh
        # processes whose str hashes, and so set orders, differ
        axioms = tmp_path / "axioms.json"
        axioms.write_text(
            json.dumps({"axioms": [
                {"name": "sq", "identity": "x == x + x*x"},
                {"name": "comm", "identity": "x*y == y*x"},
            ]}),
            encoding="utf-8",
        )
        search = ["derive", "search", "--json", "--axioms", str(axioms), "--goal"]
        commands = [
            ["check", "--semiring", "S7_0", "--method", "both", "--json",
             "--identity", "x*y*z + w*y == x*y*z + w*y + y*z*w*x"],
            ["witness", "--n", "2", "--oracle", "--json"],
            ["delta", "--term", "x*y + y*z*w + z*x"],
            search + ["a*b == a*b + b*a*b*a"],
            search + ["a*b == a*b + a", "--max-depth", "2"],
            ["crossval", "--semiring", "S7_0", "--samples", "50", "--seed", "3"],
        ]
        src = str(Path(aisemiring.__file__).resolve().parents[1])

        def outputs(hash_seed):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            done = [
                subprocess.run(
                    [sys.executable, "-m", "aisemiring", *argv],
                    capture_output=True, text=True, env=env, timeout=60,
                )
                for argv in commands
            ]
            return [(d.returncode, d.stdout) for d in done]

        first = outputs("0")
        assert [code for code, _ in first] == [1, 0, 0, 0, 1, 0]
        assert all(out for _, out in first)
        assert outputs("1") == first


class TestJsonBuildsNoText:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["delta", "--term", "x*y + y*z"], 0),
            (["witness", "--n", "2"], 0),
            (["axiom-check", "--identity", "x*y == x*y + x*y*x*y"], 0),
        ],
    )
    def test_json_reports_format_no_text_line(self, capsys, monkeypatch, argv, code):
        # the text report's delta line and pass/fail words are the parts
        # that only text output reads
        expected = run(capsys, *argv, "--json")

        def no_text(*args):
            raise AssertionError("a text line was built under --json")

        monkeypatch.setattr("aisemiring.cli.format_delta", no_text)
        monkeypatch.setattr("aisemiring.cli._STATUS", {})
        assert run(capsys, *argv, "--json") == expected
        assert expected[0] == code and json.loads(expected[1])


class TestDelta:
    def test_spec_shape(self, capsys):
        code, out, _ = run(capsys, "delta", "--term", "x*y + y*z")
        assert code == 0
        assert out.strip() == "{y}; {x,z}"

    def test_empty_family(self, capsys):
        code, out, _ = run(capsys, "delta", "--term", "x^2 + y")
        assert code == 0
        assert out.strip() == "(empty)"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "delta", "--term", "x*y + y*z", "--json")
        assert json.loads(out)["delta"] == [["y"], ["x", "z"]]

    def test_members_in_delta_key_order(self, capsys):
        # by size first, then letters sorted as strings: x10 before x9
        term = "x2*x9 + x2*x10 + x2*x1*x11"
        family = sorted(delta_sets(parse_term(term)), key=delta_key)
        members = [sorted(z) for z in family]
        assert members == [["x2"], ["x1", "x10", "x9"], ["x10", "x11", "x9"]]
        _, out, _ = run(capsys, "delta", "--term", term)
        assert out == "{x2}; {x1,x10,x9}; {x10,x11,x9}\n"
        _, out, _ = run(capsys, "delta", "--term", term, "--json")
        assert json.loads(out)["delta"] == members

    def test_work_bound_exits_two(self, capsys):
        # 20 disjoint edges: 2^20 delta sets
        term = " + ".join(f"a{i}*b{i}" for i in range(20))
        code, out, err = run(capsys, "delta", "--term", term)
        assert code == 2
        assert not out
        assert "cap" in err


class TestWitness:
    def test_n2_with_oracle(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--oracle")
        assert code == 0
        assert "overall: pass" in out
        for name in ("contents-equal", "delta-empty", "odd-cycle", "syntactic", "oracle"):
            assert f"{name}: pass" in out

    def test_n7_with_oracle(self, capsys):
        # 4^15 assignments: beyond the old assignment cap; the zero settles
        # every subtree where a letter of q is ∞
        code, out, _ = run(capsys, "witness", "--n", "7", "--oracle")
        assert code == 0
        assert "oracle: pass (172 nodes visited)" in out
        assert "overall: pass" in out

    def test_oracle_skip_is_visible(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4")
        assert code == 0
        assert "oracle: skipped" in out

    def test_oracle_node_budget_skips_the_fact(self, capsys, monkeypatch):
        monkeypatch.setattr("aisemiring.deciders.ORACLE_NODE_BUDGET", 10)
        code, out, _ = run(capsys, "witness", "--n", "2", "--oracle")
        assert code == 0
        assert "oracle: skipped (capped by ORACLE_NODE_BUDGET: 11 nodes visited, limit 10)" in out
        assert "overall: pass" in out

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "0")
        assert code == 2
        assert "at least 1" in err

    def test_n_bounded_by_word_length(self, capsys):
        code, out, err = run(capsys, "witness", "--n", "5000")
        assert code == 2
        assert not out
        assert "at most 4999" in err

    def test_largest_n_decides_every_syntactic_fact(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4999")
        assert code == 0
        for name in ("contents-equal", "delta-empty", "odd-cycle", "syntactic"):
            assert f"{name}: pass" in out
        assert "oracle: skipped (capped by ORACLE_VARIABLE_LIMIT: 9999 variables, limit 8)" in out


class TestAxiomCheck:
    def test_failing_condition_sets_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "axiom-check",
            "--identity",
            "x1*x2 + x2*x3 + x3*x1 == x1*x2*x3",
            "--commutative",
        )
        assert code == 1
        assert "(d) the length-2 words form no odd cycle: fail" in out

    def test_passing_conditions(self, capsys):
        code, out, _ = run(
            capsys,
            "axiom-check",
            "--identity",
            "x1*x2 + x2*x3 == x1*x2",
            "--commutative",
        )
        assert code == 0
        assert "every variable covered: yes" in out
        assert "B within A: yes" in out

    def test_inline_identity_longer_than_a_file_name(self, capsys):
        lhs = " + ".join(["x1*x2", "x2*x3"] * 30)
        assert len(lhs) > 255
        code, out, _ = run(
            capsys, "axiom-check", "--identity", f"{lhs} == x1*x2", "--commutative"
        )
        assert code == 0
        assert "B within A: yes" in out


class TestDerive:
    @pytest.fixture
    def axioms_file(self, tmp_path):
        path = tmp_path / "axioms.json"
        path.write_text(
            json.dumps(
                {
                    "commutative": False,
                    "axioms": [{"name": "ax1", "identity": "x == x + x*x"}],
                }
            ),
            encoding="utf-8",
        )
        return str(path)

    def test_search_finds_depth_one(self, capsys, axioms_file):
        code, out, _ = run(
            capsys,
            "derive",
            "search",
            "--axioms",
            axioms_file,
            "--goal",
            "x*y == x*y + x*y*x*y",
        )
        assert code == 0
        assert "found: 1 step(s)" in out

    def test_search_absence_is_qualified(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"axioms": []}', encoding="utf-8")
        code, out, _ = run(
            capsys,
            "derive",
            "search",
            "--axioms",
            str(path),
            "--goal",
            "x == x + x*x",
        )
        assert code == 1
        assert "exhausted" in out
        assert "fired" not in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-depth", "-1"),
            ("--max-words", "0"),
            ("--max-len", "0"),
            ("--max-image-words", "0"),
            ("--max-image-words", "-3"),
        ],
    )
    def test_bounds_below_one_exit_two(self, capsys, axioms_file, flag, value):
        code, out, err = run(
            capsys,
            "derive",
            "search",
            "--axioms",
            axioms_file,
            "--goal",
            "x*y == x*y + x*y*x*y",
            flag,
            value,
        )
        assert code == 2
        assert out == ""
        assert "at least" in err

    def test_short_max_len_is_truncation(self, capsys, axioms_file):
        # a pool cut below the goal's word length is reported, not exhausted
        code, out, _ = run(
            capsys,
            "derive",
            "search",
            "--axioms",
            axioms_file,
            "--goal",
            "x*y == x*y + x*y*x*y",
            "--max-len",
            "1",
        )
        assert code == 1
        assert "search truncated by bounds" in out
        assert "max_word_len x" in out

    def test_huge_max_image_words_returns(self, capsys, axioms_file):
        # image sizes stop at the pool's size, whatever the bound
        code, out, _ = run(
            capsys,
            "derive",
            "search",
            "--axioms",
            axioms_file,
            "--goal",
            "x*y == x*y + y*x",
            "--max-image-words",
            "100000000",
            "--max-depth",
            "1",
        )
        assert code == 1
        assert out.startswith("no derivation found: search truncated by bounds")

    def test_stats_key(self, capsys, axioms_file):
        argv = ["derive", "search", "--axioms", axioms_file, "--json", "--goal"]
        code, out, _ = run(capsys, *argv, "x*y == x*y + x*y*x*y")
        doc = json.loads(out)
        assert code == 0
        assert {"status", "explored", "bounds", "chain"} <= set(doc)
        assert doc["stats"]["matched"] >= 1
        code, out, _ = run(
            capsys, *argv, "x*y == x*y + x*y*x*y + x*y*x*y*x*y*x*y", "--max-depth", "1"
        )
        doc = json.loads(out)
        assert code == 1
        assert doc["status"] == "absent-truncated"
        assert doc["stats"]["truncated_by"]["max_depth"] >= 1

    def test_verify_round_trip_through_files(self, capsys, tmp_path, axioms_file):
        chain_path = tmp_path / "chain.json"
        code, out, _ = run(
            capsys,
            "derive",
            "search",
            "--axioms",
            axioms_file,
            "--goal",
            "x*y == x*y + x*y*x*y",
            "--json",
        )
        doc = json.loads(out)
        chain_path.write_text(
            json.dumps(doc["chain"]), encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            "derive",
            "verify",
            "--axioms",
            axioms_file,
            "--chain",
            str(chain_path),
        )
        assert code == 0
        assert "verified" in out

    def test_verify_rejects_broken_chain(self, capsys, tmp_path, axioms_file):
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(
            json.dumps(
                {
                    "commutative": False,
                    "start": "x*y",
                    "steps": [
                        {
                            "axiom": "ax1",
                            "direction": "forward",
                            "phi": {"x": "x*y"},
                            "left_context": None,
                            "right_context": None,
                            "remainder": None,
                        }
                    ],
                    "end": "x*y",
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "derive",
            "verify",
            "--axioms",
            axioms_file,
            "--chain",
            str(chain_path),
        )
        assert code == 1
        assert "rejected at index 1" in out

    @pytest.mark.parametrize(
        "axioms", [[], [{"name": "sq", "identity": "x == x + x*x"}]]
    )
    def test_commutative_flag_holds_with_or_without_axioms(self, capsys, tmp_path, axioms):
        path = tmp_path / "axioms.json"
        path.write_text(json.dumps({"commutative": True, "axioms": axioms}), encoding="utf-8")
        code, out, _ = run(
            capsys, "derive", "search", "--axioms", str(path), "--goal", "x*y == y*x"
        )
        assert (code, out) == (0, "found: 0 step(s)\nT1 = x*y\n")

    def test_missing_file(self, capsys, axioms_file):
        code, _, err = run(
            capsys,
            "derive",
            "verify",
            "--axioms",
            axioms_file,
            "--chain",
            "/no/such/file.json",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "goal, report",
        [
            (
                "a*b + c == b*a + c",
                "found: 1 step(s)\nT1 = c + a*b\n"
                "  step 1: [comm forward] x -> a, y -> b; remainder c\nT2 = c + b*a\n",
            ),
            (
                "d*a*b*e == d*b*a*e",
                "found: 1 step(s)\nT1 = d*a*b*e\n"
                "  step 1: [comm forward] x -> a, y -> b; left d; right e\nT2 = d*b*a*e\n",
            ),
        ],
    )
    def test_text_chain_names_contexts_and_remainder(self, capsys, tmp_path, goal, report):
        path = tmp_path / "comm.json"
        path.write_text(
            json.dumps({"axioms": [{"name": "comm", "identity": "x*y == y*x"}]}), encoding="utf-8"
        )
        code, out, _ = run(capsys, "derive", "search", "--axioms", str(path), "--goal", goal)
        assert (code, out) == (0, report)

    def test_verify_stops_a_step_too_large_to_build(self, capsys, tmp_path):
        # x1*...*x8 with each xi mapped to a 12-word sum builds 12^8 words a
        # side; the step is refused before any is built
        xs = [f"x{i}" for i in range(1, 9)]
        product = "*".join(xs)
        axioms = tmp_path / "axioms.json"
        axioms.write_text(
            json.dumps({"axioms": [{"name": "big", "identity": f"{product} == {product}"}]}),
            encoding="utf-8",
        )
        image = " + ".join(f"y{j}" for j in range(12))
        chain = tmp_path / "chain.json"
        chain.write_text(
            json.dumps({
                "start": "y0",
                "steps": [{"axiom": "big", "direction": "forward", "phi": dict.fromkeys(xs, image)}],
                "end": "y0",
            }),
            encoding="utf-8",
        )
        assert len(chain.read_bytes()) < 1024
        t0 = time.perf_counter()
        code, out, err = run(capsys, "derive", "verify", "--axioms", str(axioms), "--chain", str(chain))
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err == "error: capped by STEP_WORD_CAP: 248832 words or more to build, limit 100000\n"

    def test_verify_stops_a_chain_too_large_to_build(self, capsys, tmp_path):
        # y == x1*...*x5 forward and back, 20 times: each step builds
        # 1 + 9^4 * 7 words, under STEP_WORD_CAP, but the chain is refused
        # before its first step once nine steps pass CHAIN_WORD_CAP
        xs = [f"x{i}" for i in range(1, 6)]
        axioms = tmp_path / "axioms.json"
        axioms.write_text(
            json.dumps({"axioms": [{"name": "long", "identity": f"y == {'*'.join(xs)}"}]}),
            encoding="utf-8",
        )
        phi = {x: " + ".join(f"{x}a{j}" for j in range(9 if x != "x5" else 7)) for x in xs}
        phi["y"] = "s"
        steps = [
            {"axiom": "long", "direction": direction, "phi": phi}
            for _ in range(10) for direction in ("forward", "backward")
        ]
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"start": "s", "steps": steps, "end": "s"}), encoding="utf-8")
        assert len(chain.read_bytes()) < 10_000
        t0 = time.perf_counter()
        code, out, err = run(capsys, "derive", "verify", "--axioms", str(axioms), "--chain", str(chain))
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert err == "error: capped by CHAIN_WORD_CAP: 413352 words or more to build, limit 400000\n"

    @pytest.mark.parametrize(
        "steps, message",
        [
            ({}, 'chain document needs a "steps" list'),
            ([1], "each step must be an object"),
            (
                [{"axiom": 3, "direction": "forward", "phi": {}}],
                'each step needs a string "axiom" field',
            ),
            (
                [{"axiom": "ax1", "direction": "forward", "phi": {"x": "x"}, "remainder": 5}],
                "term fields must be strings or null",
            ),
        ],
    )
    def test_verify_rejects_malformed_steps(self, capsys, tmp_path, axioms_file, steps, message):
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(
            json.dumps({"start": "x", "steps": steps, "end": "x"}), encoding="utf-8"
        )
        code, out, err = run(
            capsys, "derive", "verify", "--axioms", axioms_file, "--chain", str(chain_path)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "d2.json"
        path.write_text(semiring_to_json(builtin("D2")), encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--semiring", str(path))
        assert code == 0
        assert "valid ai-semiring: 2 element(s)" in out

    def test_axiom_violation_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "elements": ["x", "y"],
                    "add": [["x", "y"], ["x", "y"]],
                    "mul": [["x", "x"], ["x", "x"]],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "validate", "--semiring", str(path))
        assert code == 1
        assert "invalid" in out

    def test_axiom_violation_json_bytes(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"elements": ["x", "y"], "add": [["x", "y"], ["x", "y"]], "mul": [["x", "x"], ["x", "x"]]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", "--semiring", str(path), "--json")
        assert (code, err) == (1, "")
        assert out == (
            '{\n  "valid": false,\n  "law": "additive commutativity",\n'
            '  "witness": [\n    "x",\n    "y"\n  ]\n}\n'
        )

    def test_structural_junk_exits_two(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--semiring", str(path))
        assert code == 2

    def test_non_string_cell_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cell.json"
        path.write_text(
            json.dumps({"elements": ["a"], "add": [[["a"]]], "mul": [["a"]]}), encoding="utf-8"
        )
        code, out, err = run(capsys, "validate", "--semiring", str(path))
        assert (code, out, err) == (2, "", "error: 'add' entry ['a'] is not an element name\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "semiring file must be a JSON object"),
            (
                {"elements": [], "add": [], "mul": []},
                "'elements' must be a nonempty array of strings",
            ),
            (
                {"elements": ["a", "a"], "add": [["a", "a"]] * 2, "mul": [["a", "a"]] * 2},
                "element names must be distinct",
            ),
            (
                {"elements": ["a", "b"], "add": [["a", "b"], ["a"]], "mul": [["a", "a"]] * 2},
                "'add' must be a 2x2 array",
            ),
        ],
    )
    def test_malformed_table_exits_two(self, capsys, tmp_path, doc, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", "--semiring", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--semiring", "{deep}"],
            ["check", "--semiring", "{deep}", "--identity", "x == x"],
            ["derive", "verify", "--axioms", "{deep}", "--chain", "{deep}"],
            ["derive", "search", "--axioms", "{deep}", "--goal", "x == x"],
        ],
    )
    def test_nesting_too_deep_for_json_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, *(a.replace("{deep}", str(path)) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON: maximum recursion depth exceeded")

    def test_derive_reports_bad_json_like_validate(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{", encoding="utf-8")
        code, out, err = run(capsys, "derive", "search", "--axioms", str(path), "--goal", "x == x")
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON: Expecting property name")

    def test_commutative_must_be_a_json_boolean(self, capsys, tmp_path):
        path = tmp_path / "axioms.json"
        path.write_text(
            json.dumps(
                {"commutative": "false", "axioms": [{"name": "c", "identity": "x*y == y*x"}]}
            ),
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "derive", "search", "--axioms", str(path), "--goal", "x*y == y*x"
        )
        assert (code, out, err) == (
            2, "", "error: \"commutative\" must be true or false, not 'false'\n"
        )


class TestCrossval:
    def test_clean_run(self, capsys):
        code, out, _ = run(
            capsys,
            "crossval",
            "--semiring",
            "S7",
            "--samples",
            "200",
            "--seed",
            "9",
        )
        assert code == 0
        assert "disagreements: 0" in out

    def test_json_bytes(self, capsys):
        code, out, err = run(capsys, "crossval", "--semiring", "S7_0", "--samples", "3", "--json")
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "semiring": "S7_0",\n  "samples": 3,\n  "seed": 0,\n  "bounds": {\n'
            '    "max_vars": 4,\n    "max_words": 4,\n    "max_word_len": 4,\n'
            '    "commutative": false\n  },\n  "disagreements": []\n}\n'
        )

    def test_output_is_deterministic(self, capsys):
        args = ("crossval", "--semiring", "D2", "--samples", "150", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_disagreements_are_listed(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "aisemiring.cli.syntactic_decider", lambda label: lambda ident: Verdict(True)
        )
        code, out, _ = run(
            capsys, "crossval", "--semiring", "S7", "--samples", "20", "--seed", "1"
        )
        lines = out.splitlines()
        count = int(lines[3].removeprefix("disagreements: "))
        assert code == 1
        assert count >= 1
        assert len(lines) == 4 + count
        for line in lines[4:]:
            assert re.fullmatch(r"  .+ == .+: syntactic=True oracle=False", line)

    def test_semiring_file_failing_the_axioms(self, capsys, tmp_path):
        # the file is loaded before the decider is looked up, as in check:
        # a left-projection addition is idempotent but not commutative
        path = tmp_path / "bad.json"
        path.write_text(
            '{"elements": ["a", "b"], "add": [["a", "a"], ["b", "b"]], "mul": [["a", "a"], ["a", "a"]]}',
            encoding="utf-8",
        )
        for command in (("check", "--identity", "x == x"), ("crossval", "--samples", "1")):
            code, out, err = run(capsys, command[0], "--semiring", str(path), *command[1:])
            assert (code, out) == (2, "")
            assert err == f"error: semiring file {path}: additive commutativity fails at (a, b)\n"

    def test_unknown_semiring(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        for command in (("check", "--identity", "x == x"), ("crossval", "--samples", "1")):
            code, out, err = run(capsys, command[0], "--semiring", missing, *command[1:])
            assert (code, out) == (2, "")
            assert err == (
                f"error: unknown semiring {missing!r}: not one of S7, S7_0, D2, trivial "
                "and no such file\n"
            )

    def test_requires_builtin_name(self, capsys, tmp_path):
        path = tmp_path / "s7.json"
        path.write_text(semiring_to_json(builtin("S7")), encoding="utf-8")
        code, _, err = run(
            capsys, "crossval", "--semiring", str(path), "--samples", "10"
        )
        assert code == 2
        # the builtin names in BUILTIN_NAMES order, as check lists them
        assert err == (
            f"error: no syntactic decider is defined for semiring {str(path)!r}; "
            "the builtin names S7, S7_0, D2, trivial have one\n"
        )

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--samples", "-3", "samples must be at least 0, got -3"),
            ("--max-vars", "0", "max_vars must be at least 1, got 0"),
            ("--max-words", "0", "max_words must be at least 1, got 0"),
            ("--max-len", "0", "max_word_len must be at least 1, got 0"),
        ],
    )
    def test_bad_bound_exits_two(self, capsys, flag, value, message):
        code, out, err = run(capsys, "crossval", "--semiring", "S7_0", flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestDefaultsMatchLibrary:
    # the frozen reference parser pins the CLI's defaults; these pin them
    # to the library's, so that neither copy drifts from the other
    def test_derive_search_defaults_are_search_bounds(self):
        args = build_parser().parse_args(["derive", "search", "--axioms", "a", "--goal", "g"])
        bounds = SearchBounds(
            max_depth=args.max_depth,
            max_words=args.max_words,
            max_word_len=args.max_len,
            max_image_words=args.max_image_words,
        )
        assert bounds == SearchBounds()

    def test_crossval_defaults_are_cross_validates(self):
        args = build_parser().parse_args(["crossval", "--semiring", "S7"])
        defaults = inspect.signature(cross_validate).parameters
        assert (args.max_vars, args.max_words, args.max_len) == (
            defaults["max_vars"].default,
            defaults["max_words"].default,
            defaults["max_word_len"].default,
        )
