"""Command-line surface: deciders, delta computations, witness checks,
axiom-shape checks, derivation verify/search, semiring file validation
and decider-vs-oracle cross-validation. All output is deterministic for
fixed inputs and seed; --json mirrors the text reports.

build_parser() is the one grammar of the command line, and two readers
use it. An argv made of a command path and whole option names with plain
values is read straight from the parser's actions (_exact_args); anything
else (help, abbreviations, --opt=value, usage errors) goes to argparse,
which also writes every help text and usage message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring
from pathlib import Path

from .algebra import (
    BUILTIN_NAMES,
    AxiomViolation,
    FiniteSemiring,
    builtin,
    semiring_from_json,
)
from .deciders import (
    Verdict,
    cross_validate,
    holds_bruteforce,
    syntactic_decider,
)
from .derivation import (
    SearchBounds,
    apply_step,
    axioms_from_json,
    chain_from_json,
    chain_to_dict,
    search_derivation,
    verify_chain,
)
from .errors import SizeLimitError
from .parsing import parse_identity, parse_term
from .terms import delta_sets, format_word
from .witness import (
    CONDITION_TEXT,
    check_axiom_conditions,
    check_witness_facts,
    make_witness,
)


def _is_file(path: Path) -> bool:
    """Path.is_file, with names the OS rejects (too long, say) read as no file."""
    try:
        return path.is_file()
    except OSError:
        return False


def _load_semiring(arg: str) -> FiniteSemiring | AxiomViolation:
    """A builtin by name, else the axiom-checked table of a semiring file."""
    if arg in BUILTIN_NAMES:
        return builtin(arg)
    path = Path(arg)
    if not _is_file(path):
        raise ValueError(
            f"unknown semiring {arg!r}: not one of {', '.join(BUILTIN_NAMES)} "
            "and no such file"
        )
    return semiring_from_json(path.read_text(encoding="utf-8"))


def _valid_semiring(arg: str) -> FiniteSemiring:
    out = _load_semiring(arg)
    if isinstance(out, AxiomViolation):
        raise ValueError(f"semiring file {arg}: {out}")
    return out


def _identity_arg(value: str, commutative: bool):
    path = Path(value)
    if _is_file(path):
        value = path.read_text(encoding="utf-8").strip()
    return parse_identity(value, commutative)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, ensure_ascii=False), without the
    pure-Python encoder that json.dumps falls back on to indent: containers
    are laid out here, strings and other scalars encoded by json's C code."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                if not isinstance(key, (int, float, type(None))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = json.dumps(key)
            items.append(f"{inner}{encode_basestring(key)}: {_json_text(item, inner)}")
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [inner + _json_text(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def _emit(args, lines: list[str], doc: dict) -> None:
    if args.json:
        print(_json_text(doc))
    else:
        print("\n".join(lines))


def _verdict_lines(label: str, v: Verdict) -> list[str]:
    lines = [f"{label}: {'holds' if v.holds else 'fails'}"]
    if v.witness:
        pairs = ", ".join(f"{x}={v.witness[x]}" for x in sorted(v.witness))
        lines.append(f"  witness: {pairs}")
    if v.reason:
        lines.append(f"  reason: {v.reason}")
    return lines


def cmd_check(args) -> int:
    label = args.semiring
    s = _valid_semiring(label)
    syntactic = syntactic_decider(label) if args.method in ("syntactic", "both") else None
    ident = _identity_arg(args.identity, args.commutative)
    results: dict[str, Verdict] = {}
    if args.method in ("oracle", "both"):
        results["oracle"] = holds_bruteforce(s, ident)
    if syntactic is not None:
        results["syntactic"] = syntactic(ident)

    text = str(ident)
    lines = [f"identity: {text}", f"semiring: {label}"]
    for name in ("oracle", "syntactic"):
        if name in results:
            lines.extend(_verdict_lines(name, results[name]))
    doc = {
        "identity": text,
        "semiring": label,
        "method": args.method,
        "results": {name: v.to_dict() for name, v in results.items()},
    }
    agree = True
    if len(results) == 2:
        agree = results["oracle"].holds == results["syntactic"].holds
        lines.append(f"agreement: {'yes' if agree else 'no'}")
        doc["agreement"] = agree
    _emit(args, lines, doc)
    return 0 if agree and all(v.holds for v in results.values()) else 1


def cmd_delta(args) -> int:
    term = parse_term(args.term, args.commutative)
    family = sorted(delta_sets(term), key=lambda z: (len(z), sorted(z)))
    rendered = "; ".join("{" + ",".join(sorted(z)) + "}" for z in family)
    _emit(
        args,
        [rendered if family else "(empty)"],
        {"term": str(term), "delta": [sorted(z) for z in family]},
    )
    return 0


_STATUS = {True: "pass", False: "fail", None: "skipped"}


def cmd_witness(args) -> int:
    pair = make_witness(args.n)
    report = check_witness_facts(pair, force_oracle=args.oracle)
    u, q = str(pair.u), format_word(pair.q)
    lines = [f"witness n={pair.n}", f"u = {u}", f"q = {q}"]
    for c in report.checks:
        note = f" ({c.note})" if c.note else ""
        lines.append(f"{c.name}: {_STATUS[c.passed]}{note}")
    lines.append(f"overall: {'pass' if report.ok else 'fail'}")
    doc = {"u": u, "q": q}
    doc.update(report.to_dict())
    _emit(args, lines, doc)
    return 0 if report.ok else 1


def cmd_axiom_check(args) -> int:
    ident = _identity_arg(args.identity, args.commutative)
    report = check_axiom_conditions(ident.lhs, ident.rhs)
    text = str(ident)
    lines = [f"identity: {text}"]
    for c in report.conditions:
        note = f" ({c.witness})" if c.witness else ""
        lines.append(f"({c.name}) {CONDITION_TEXT[c.name]}: {_STATUS[c.passed]}{note}")
    rendered = "; ".join("{" + ",".join(sorted(z)) + "}" for z in report.delta)
    lines.append(f"delta(A): {rendered if report.delta else '(empty)'}")
    lines.append(
        f"every variable covered: {'yes' if report.every_variable_covered else 'no'}"
    )
    lines.append(f"B within A: {'yes' if report.b_subset_a else 'no'}")
    doc = {"identity": text}
    doc.update(report.to_dict())
    _emit(args, lines, doc)
    return 0 if report.ok else 1


def cmd_derive_verify(args) -> int:
    sigma = axioms_from_json(Path(args.axioms).read_text(encoding="utf-8"))
    chain = chain_from_json(Path(args.chain).read_text(encoding="utf-8"))
    verdict = verify_chain(chain, sigma)
    if verdict.ok:
        lines = [f"verified: {len(chain.steps)} step(s) from {chain.start} to {chain.end}"]
    else:
        lines = [f"rejected at index {verdict.failing_index}: {verdict.reason}"]
    doc = {
        "ok": verdict.ok,
        "steps": len(chain.steps),
        "failing_index": verdict.failing_index,
        "reason": verdict.reason,
    }
    _emit(args, lines, doc)
    return 0 if verdict.ok else 1


def _chain_lines(chain, sigma) -> list[str]:
    lines = [f"T1 = {chain.start}"]
    t = chain.start
    for i, step in enumerate(chain.steps, start=1):
        phi = ", ".join(f"{x} -> {step.phi[x]}" for x in sorted(step.phi))
        extras = []
        if step.left_context is not None:
            extras.append(f"left {step.left_context}")
        if step.right_context is not None:
            extras.append(f"right {step.right_context}")
        if step.remainder is not None:
            extras.append(f"remainder {step.remainder}")
        tail = f"; {'; '.join(extras)}" if extras else ""
        lines.append(f"  step {i}: [{step.axiom_name} {step.direction}] {phi}{tail}")
        t = apply_step(t, step, sigma)
        lines.append(f"T{i + 1} = {t}")
    return lines


def cmd_derive_search(args) -> int:
    sigma = axioms_from_json(Path(args.axioms).read_text(encoding="utf-8"))
    goal = parse_identity(args.goal, sigma.commutative)
    bounds = SearchBounds(
        max_depth=args.max_depth,
        max_words=args.max_words,
        max_word_len=args.max_len,
        max_image_words=args.max_image_words,
    )
    outcome = search_derivation(sigma, goal, bounds)
    doc = {
        "status": outcome.status,
        "explored": outcome.explored,
        "bounds": {
            "max_depth": bounds.max_depth,
            "max_words": bounds.max_words,
            "max_word_len": bounds.max_word_len,
            "max_image_words": bounds.max_image_words,
        },
        "chain": chain_to_dict(outcome.chain) if outcome.found else None,
        "stats": {"truncated_by": outcome.truncated_by, "matched": outcome.matched},
    }
    if outcome.found:
        lines = [f"found: {len(outcome.chain.steps)} step(s)"]
        lines.extend(_chain_lines(outcome.chain, sigma))
    elif outcome.status == "absent-exhausted":
        lines = [
            "no derivation: candidate space exhausted "
            f"(explored {outcome.explored} term(s))"
        ]
    else:
        guards = ", ".join(f"{g} x{n}" for g, n in outcome.truncated_by.items())
        lines = [
            "no derivation found: search truncated by bounds "
            f"(explored {outcome.explored} term(s); fired: {guards})"
        ]
    _emit(args, lines, doc)
    return 0 if outcome.found else 1


def cmd_validate(args) -> int:
    out = _load_semiring(args.semiring)
    if isinstance(out, AxiomViolation):
        _emit(
            args,
            [f"invalid: {out}"],
            {"valid": False, "law": out.law, "witness": list(out.witness)},
        )
        return 1
    _emit(
        args,
        [f"valid ai-semiring: {out.size} element(s) ({', '.join(out.elements)})"],
        {"valid": True, "elements": list(out.elements)},
    )
    return 0


def cmd_crossval(args) -> int:
    syntactic = syntactic_decider(args.semiring)
    report = cross_validate(
        _valid_semiring(args.semiring),
        syntactic,
        samples=args.samples,
        seed=args.seed,
        max_vars=args.max_vars,
        max_words=args.max_words,
        max_word_len=args.max_len,
        commutative=args.commutative,
        label=args.semiring,
    )
    lines = [
        f"semiring: {report.semiring}",
        f"samples: {report.samples}  seed: {report.seed}",
        "bounds: max_vars={max_vars} max_words={max_words} "
        "max_word_len={max_word_len} commutative={commutative}".format(
            **report.bounds
        ),
        f"disagreements: {len(report.disagreements)}",
    ]
    for d in report.disagreements:
        lines.append(
            f"  {d['identity']}: syntactic={d['syntactic']} oracle={d['oracle']}"
        )
    _emit(args, lines, report.to_dict())
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, each call fills a fresh namespace. It is the one
    declaration of the grammar: _commands() reads the exact-argv table from
    its actions, and argparse itself handles every other argv."""
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


@functools.cache
def _commands() -> dict:
    """build_parser() as a tree: command name -> subtree, down to a leaf
    (options by whole option string, required actions, namespace defaults)
    for each command path such as check or derive search. The defaults are
    those parse_args starts from: every action's default, each parser's
    set_defaults and the subparser dests naming the path taken."""

    def walk(parser, defaults):
        defaults = dict(defaults)
        options, required, sub = {}, set(), None
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                sub = action
                continue
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                defaults[action.dest] = action.default
            if action.required:
                required.add(action)
            # one value or a const: the option kinds _exact_args reads as argparse does
            if action.nargs in (None, 0) and isinstance(
                action, (argparse._StoreAction, argparse._StoreConstAction)
            ):
                options.update(dict.fromkeys(action.option_strings, action))
        defaults.update(parser._defaults)
        if sub is None:
            return options, frozenset(required), defaults
        return {
            name: walk(child, {**defaults, sub.dest: name})
            for name, child in sub.choices.items()
        }

    return walk(build_parser(), {})


def _exact_args(argv):
    """The namespace build_parser().parse_args(argv) returns, read without
    argparse, when argv is a command path followed by whole option names,
    each value not starting with "-" and valid for the option's type and
    choices, with every required option given (a repeated option keeps its
    last value). None for any other argv, which argparse then reads."""
    node, i = _commands(), 0
    while isinstance(node, dict):
        if i == len(argv) or argv[i] not in node:
            return None
        node, i = node[argv[i]], i + 1
    options, required, defaults = node
    values, seen = dict(defaults), set()
    while i < len(argv):
        action = options.get(argv[i])
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            i += 1
        else:
            if i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            text = argv[i + 1]
            try:
                value = text if action.type is None else action.type(text)
            except (TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            i += 2
        seen.add(action)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    args = _exact_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
