"""Command-line surface: deciders, delta computations, witness checks,
axiom-shape checks, derivation verify/search, semiring file validation
and decider-vs-oracle cross-validation. All output is deterministic for
fixed inputs and seed; --json mirrors the text reports.

The table COMMANDS is the one grammar of the command line, and two
readers use it. An argv made of a command path and whole option names
with plain values is read straight from the table (_exact_args);
anything else (help, abbreviations, --opt=value, usage errors) goes to
the argparse parser that build_parser() declares from the same table,
which also writes every help text and usage message. argparse is
imported only for the argv _exact_args refuses.

The CLI holds derivation and witness as the package's lazy modules,
whose code runs on the first attribute read: in the derive commands, and
in witness and axiom-check. So a check, delta, validate or crossval
process runs neither, nor imports argparse or gettext, nor json:
--json output is laid out by algebra._json_text, and well-formed files
are decoded without it (algebra.json_document).
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from . import derivation, witness
from .algebra import (
    BUILTIN_NAMES,
    AxiomViolation,
    FiniteSemiring,
    _json_text,
    builtin,
    semiring_from_json,
)
from .deciders import (
    Verdict,
    cross_validate,
    holds_bruteforce,
    syntactic_decider,
)
from .errors import SizeLimitError
from .parsing import parse_identity, parse_term
from .terms import delta_sets, format_delta, format_word


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_semiring(arg: str) -> FiniteSemiring | AxiomViolation:
    """A builtin by name, else the axiom-checked table of a semiring file."""
    if arg in BUILTIN_NAMES:
        return builtin(arg)
    if not os.path.isfile(arg):
        raise ValueError(
            f"unknown semiring {arg!r}: not one of {', '.join(BUILTIN_NAMES)} "
            "and no such file"
        )
    return semiring_from_json(_read_text(arg))


def _valid_semiring(arg: str) -> FiniteSemiring:
    out = _load_semiring(arg)
    if isinstance(out, AxiomViolation):
        raise ValueError(f"semiring file {arg}: {out}")
    return out


def _identity_arg(value: str, commutative: bool):
    """The identity in the file named value, else value itself parsed;
    isfile is False for text no file name can be (too long, or with a NUL)."""
    if os.path.isfile(value):
        value = _read_text(value).strip()
    return parse_identity(value, commutative)


def _emit(args, lines: list[str], doc: dict) -> None:
    """doc under --json, else the text lines; a command whose lines cost
    work builds them only without --json."""
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
    doc = {
        "identity": text,
        "semiring": label,
        "method": args.method,
        "results": {name: v.to_dict() for name, v in results.items()},
    }
    agree = True
    if len(results) == 2:
        agree = results["oracle"].holds == results["syntactic"].holds
        doc["agreement"] = agree
    lines = []
    if not args.json:  # the text report, oracle first
        lines = [f"identity: {text}", f"semiring: {label}"]
        for name, v in results.items():
            lines.extend(_verdict_lines(name, v))
        if len(results) == 2:
            lines.append(f"agreement: {'yes' if agree else 'no'}")
    _emit(args, lines, doc)
    return 0 if agree and all(v.holds for v in results.values()) else 1


def cmd_delta(args) -> int:
    term = parse_term(args.term, args.commutative)
    # each member's letters are sorted once; ordering those lists and then
    # stably by size gives the delta_key order
    members = sorted(map(sorted, delta_sets(term)))
    members.sort(key=len)
    lines = [] if args.json else [format_delta(members)]
    _emit(args, lines, {"term": str(term), "delta": members})
    return 0


_STATUS = {True: "pass", False: "fail", None: "skipped"}


def cmd_witness(args) -> int:
    pair = witness.make_witness(args.n)
    report = witness.check_witness_facts(pair, force_oracle=args.oracle)
    u, q = str(pair.u), format_word(pair.q)
    doc = {"u": u, "q": q}
    doc.update(report.to_dict())
    lines = []
    if not args.json:
        lines = [f"witness n={pair.n}", f"u = {u}", f"q = {q}"]
        for c in report.checks:
            note = f" ({c.note})" if c.note else ""
            lines.append(f"{c.name}: {_STATUS[c.passed]}{note}")
        lines.append(f"overall: {'pass' if report.ok else 'fail'}")
    _emit(args, lines, doc)
    return 0 if report.ok else 1


def cmd_axiom_check(args) -> int:
    ident = _identity_arg(args.identity, args.commutative)
    report = witness.check_axiom_conditions(ident.lhs, ident.rhs)
    text = str(ident)
    doc = {"identity": text}
    doc.update(report.to_dict())
    lines = []
    if not args.json:
        lines = [f"identity: {text}"]
        for c in report.conditions:
            note = f" ({c.witness})" if c.witness else ""
            lines.append(f"({c.name}) {witness.CONDITION_TEXT[c.name]}: {_STATUS[c.passed]}{note}")
        lines.append(f"delta(A): {format_delta(doc['delta'])}")
        lines.append(
            f"every variable covered: {'yes' if report.every_variable_covered else 'no'}"
        )
        lines.append(f"B within A: {'yes' if report.b_subset_a else 'no'}")
    _emit(args, lines, doc)
    return 0 if report.ok else 1


def cmd_derive_verify(args) -> int:
    sigma = derivation.axioms_from_json(_read_text(args.axioms))
    chain = derivation.chain_from_json(_read_text(args.chain))
    verdict = derivation.verify_chain(chain, sigma)
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
        t = derivation.apply_step(t, step, sigma)
        lines.append(f"T{i + 1} = {t}")
    return lines


def cmd_derive_search(args) -> int:
    sigma = derivation.axioms_from_json(_read_text(args.axioms))
    goal = parse_identity(args.goal, sigma.commutative)
    bounds = derivation.SearchBounds(
        max_depth=args.max_depth,
        max_words=args.max_words,
        max_word_len=args.max_len,
        max_image_words=args.max_image_words,
    )
    outcome = derivation.search_derivation(sigma, goal, bounds)
    doc = {
        "status": outcome.status,
        "explored": outcome.explored,
        "bounds": bounds.to_dict(),
        "chain": derivation.chain_to_dict(outcome.chain) if outcome.found else None,
        "stats": {"truncated_by": outcome.truncated_by, "matched": outcome.matched},
    }
    if args.json:  # the chain is in doc; replaying it for the text is not needed
        lines = []
    elif outcome.found:
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
            {"valid": False, **out.to_dict()},
        )
        return 1
    _emit(
        args,
        [f"valid ai-semiring: {out.size} element(s) ({', '.join(out.elements)})"],
        {"valid": True, "elements": list(out.elements)},
    )
    return 0


def cmd_crossval(args) -> int:
    # the semiring is loaded before its decider is looked up, as in check
    report = cross_validate(
        _valid_semiring(args.semiring),
        syntactic_decider(args.semiring),
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


JSON = ("--json", {"action": "store_true", "help": "emit a JSON report instead of text"})
COMMUTATIVE = (
    "--commutative",
    {"action": "store_true", "help": "read words as commutative (letters sorted)"},
)

# The one grammar of the command line: command name -> (help, handler,
# options), where derive's handler is a table of its own subcommands. An
# option is (option string, add_argument keywords), of one of two kinds: a
# store_true flag, or one value with optional type, choices, default and
# required. Its dest is argparse's: --max-len is read into max_len.
COMMANDS = {
    "check": ("decide an identity in a semiring", cmd_check, (
        JSON,
        COMMUTATIVE,
        ("--semiring", {"required": True, "help": "builtin name or JSON file"}),
        ("--identity", {"required": True, "help": "identity text or file"}),
        ("--method", {
            "choices": ("oracle", "syntactic", "both"),
            "default": "oracle",
            "help": "decision route (default: oracle)",
        }),
    )),
    "delta": ("compute the delta-set family of a term", cmd_delta, (
        JSON, COMMUTATIVE, ("--term", {"required": True}),
    )),
    "witness": ("check the facts of the n-th odd-cycle witness pair", cmd_witness, (
        JSON,
        ("--n", {"type": int, "required": True}),
        ("--oracle", {
            "action": "store_true",
            "help": "run the brute-force check even beyond the default size limit",
        }),
    )),
    "axiom-check": ("check a candidate axiom against the structural conditions",
                    cmd_axiom_check, (
        JSON, COMMUTATIVE, ("--identity", {"required": True}),
    )),
    "derive": ("verify or search derivation chains", {
        "verify": ("replay a chain file against an axiom file", cmd_derive_verify, (
            JSON, ("--axioms", {"required": True}), ("--chain", {"required": True}),
        )),
        "search": ("breadth-first search for a derivation", cmd_derive_search, (
            JSON,
            ("--axioms", {"required": True}),
            ("--goal", {"required": True}),
            ("--max-depth", {"type": int, "default": 4}),
            ("--max-words", {"type": int, "default": 8}),
            ("--max-len", {"type": int, "default": 8}),
            ("--max-image-words", {"type": int, "default": 1}),
        )),
    }, ()),
    "validate": ("axiom-check a semiring file", cmd_validate, (
        JSON, ("--semiring", {"required": True, "help": "JSON file or builtin name"}),
    )),
    "crossval": ("compare a syntactic decider against the oracle on random identities",
                 cmd_crossval, (
        JSON,
        COMMUTATIVE,
        ("--semiring", {"required": True, "help": "builtin name"}),
        ("--samples", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 0}),
        ("--max-vars", {"type": int, "default": 4}),
        ("--max-words", {"type": int, "default": 4}),
        ("--max-len", {"type": int, "default": 4}),
    )),
}


@functools.cache
def _dest(option: str) -> str:
    """The namespace attribute argparse reads an option into."""
    return option.lstrip("-").replace("-", "_")


@functools.cache
def build_parser():
    """COMMANDS declared to argparse, once per process (parse_args keeps no
    state between calls). Only argv that _exact_args refuses come here:
    help, abbreviations, --opt=value and usage errors."""
    import argparse

    def declare(parser, table, dest):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (text, handler, options) in table.items():
            p = sub.add_parser(name, help=text)
            if isinstance(handler, dict):
                declare(p, handler, f"{name}_command")
                continue
            for option, keywords in options:
                p.add_argument(option, **keywords)
            p.set_defaults(func=handler)

    parser = argparse.ArgumentParser(
        prog="aisemiring",
        description="Decide identities in finite additively idempotent semirings.",
    )
    declare(parser, COMMANDS, "command")
    return parser


def _exact_args(argv):
    """The namespace build_parser().parse_args(argv) returns, read from
    COMMANDS without argparse, when argv is a command path followed by whole
    option names, each value not starting with "-" and valid for the
    option's type and choices, with every required option given (a repeated
    option keeps its last value). None for any other argv, which argparse
    then reads."""
    node, dest, values, i = COMMANDS, "command", {}, 0
    while isinstance(node, dict):  # down the command path to its handler
        if i == len(argv) or argv[i] not in node:
            return None
        name = argv[i]
        values[dest] = name
        _, node, options = node[name]
        dest, i = f"{name}_command", i + 1
    values["func"] = node
    by_option, required = {}, set()
    for option, keywords in options:
        dest = _dest(option)
        by_option[option] = dest, keywords
        values[dest] = False if "action" in keywords else keywords.get("default")
        if keywords.get("required"):
            required.add(option)
    while i < len(argv):
        if argv[i] not in by_option:
            return None
        dest, keywords = by_option[argv[i]]
        required.discard(argv[i])
        if "action" in keywords:  # store_true
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(argv[i + 1])
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        i += 2
    if required:
        return None
    return SimpleNamespace(**values)


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
