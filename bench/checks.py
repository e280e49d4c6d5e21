"""Output checks for one benchmark item.

Each check reads the item's exit code and its --json output and compares
them with what the generator knows by construction and with the paper's
definitions, evaluated here without the program's own code: oracle
witnesses are re-evaluated on copied tables and every reported delta member
is tested against the words the generator wrote. Only a found derivation
chain is replayed through the program's verify_chain.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass


@dataclass
class Outcome:
    """What one item's output showed.

    ok is False when the output is wrong; decided is False when the item
    ended in a visible limit (a size-limit exit, a skipped fact or a
    truncated search). The counts feed the per-layer metrics.
    """

    ok: bool = True
    decided: bool = True
    problem: str = ""
    assignments: int = 0  # oracle assignments needed to settle the verdicts
    explored: int = 0
    truncated: int = 0
    skipped: int = 0


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _norm(words, commutative: bool) -> frozenset:
    return frozenset(tuple(sorted(w)) if commutative else tuple(w) for w in words)


def _variables(*sides) -> list[str]:
    return sorted({x for side in sides for w in side for x in w})


def _evaluate(words, table, asg: dict[str, int]) -> int:
    _, add, mul = table
    total = -1
    for w in words:
        e = asg[w[0]]
        for x in w[1:]:
            e = mul[e][asg[x]]
        total = e if total < 0 else add[total][e]
    return total


def is_delta_member(z, words) -> bool:
    """z meets every word in exactly one letter, which occurs once there."""
    zs = set(z)
    for w in words:
        hit = zs.intersection(w)
        if len(hit) != 1 or Counter(w)[next(iter(hit))] != 1:
            return False
    return True


def _check_verdicts(item, doc: dict, rc: int, tables) -> Outcome:
    e = item.expect
    results = doc["results"]
    verdicts = {name: results[name]["holds"] for name in results}
    _require(bool(verdicts), "no verdict reported")
    if len(verdicts) == 2:
        same = verdicts["oracle"] == verdicts["syntactic"]
        _require(same, f"oracle/syntactic disagreement on {doc['identity']}")
        _require(doc.get("agreement") is True, "agreement flag does not match the verdicts")
    holds = next(iter(verdicts.values()))
    if e.get("holds") is not None:
        _require(holds == e["holds"], f"verdict {holds}, construction forces {e['holds']}")
    _require(rc == (0 if holds else 1), f"exit code {rc} for verdict {holds}")

    out = Outcome()
    if "oracle" not in results:
        return out
    table = tables[e["semiring"]]
    elements = table[0]
    variables = _variables(e["lhs"], e["rhs"])
    if holds:
        trivial = _norm(e["lhs"], e["commutative"]) == _norm(e["rhs"], e["commutative"])
        out.assignments = 0 if trivial else len(elements) ** len(variables)
        return out
    witness = results["oracle"].get("witness") or {}
    _require(sorted(witness) == variables, "oracle witness does not assign every variable")
    _require(all(v in elements for v in witness.values()), "oracle witness names unknown elements")
    asg = {x: elements.index(v) for x, v in witness.items()}
    _require(
        _evaluate(e["lhs"], table, asg) != _evaluate(e["rhs"], table, asg),
        "oracle witness does not falsify the identity",
    )
    index = 0
    for x in variables:
        index = index * len(elements) + asg[x]
    out.assignments = index + 1
    return out


def _check_witness(item, doc: dict, rc: int) -> Outcome:
    n = item.expect["n"]
    checks = {c["name"]: c["passed"] for c in doc["checks"]}
    failed = [name for name, passed in checks.items() if passed is False]
    _require(not failed, f"witness n={n}: fact {', '.join(failed)} failed")
    _require(rc == 0 and doc["ok"] is True, f"witness n={n}: exit code {rc}")
    skipped = sum(1 for passed in checks.values() if passed is None)
    out = Outcome(decided=skipped == 0, skipped=skipped)
    if item.expect["oracle"]:
        _require(checks.get("oracle") is True, f"witness n={n}: forced oracle did not run")
    if checks.get("oracle") is True:
        out.assignments = 4 ** (2 * n + 1)
    return out


def _check_delta(item, doc: dict, rc: int) -> Outcome:
    words = item.expect["words"]
    _require(rc == 0, f"delta: exit code {rc}")
    members = doc["delta"]
    bad = [z for z in members if not is_delta_member(z, words)]
    _require(not bad, f"delta member {bad[:1]} breaks the definition")
    planted = sorted(item.expect["planted"])
    _require(planted in [sorted(z) for z in members], "planted delta set missing")
    return Outcome()


def _check_axiom(item, doc: dict, rc: int) -> Outcome:
    lhs, rhs = item.expect["lhs"], item.expect["rhs"]
    members = doc["delta"]
    bad = [z for z in members if not is_delta_member(z, lhs)]
    _require(not bad, f"axiom-check delta member {bad[:1]} breaks the definition")
    conditions = {c["name"]: c["passed"] for c in doc["conditions"]}
    _require(conditions.get("a") == all(len(w) <= 2 for w in lhs), "condition (a) misreported")
    _require(conditions.get("b") == all(len(set(w)) == len(w) for w in lhs), "condition (b) misreported")
    ok = all(conditions.values())
    _require(doc["ok"] == ok and rc == (0 if ok else 1), f"axiom-check: exit code {rc}")
    covered = all(any(x in z for z in members) for x in _variables(lhs))
    _require(doc["every_variable_covered"] == covered, "coverage misreported")
    _require(doc["b_subset_a"] is (_norm(rhs, True) <= _norm(lhs, True)), "B within A misreported")
    return Outcome()


def _check_derive(item, doc: dict, rc: int, lib) -> Outcome:
    status = doc["status"]
    found = status == "found"
    _require(rc == (0 if found else 1), f"derive: exit code {rc} for status {status}")
    if item.expect["status"] == "found":
        _require(found, f"derive: {item.expect['goal']} not found ({status})")
    else:
        _require(status in ("absent-exhausted", "absent-truncated"), f"derive: status {status}")
    if found:
        with open(item.expect["axioms"], encoding="utf-8") as fh:
            sigma = lib.derivation.axioms_from_json(fh.read())
        chain = lib.derivation.chain_from_json(json.dumps(doc["chain"]))
        goal = lib.parsing.parse_identity(item.expect["goal"], sigma.commutative)
        _require(chain.start == goal.lhs and chain.end == goal.rhs, "chain ends differ from the goal")
        verdict = lib.derivation.verify_chain(chain, sigma)
        _require(verdict.ok, f"found chain does not re-verify: {verdict.reason}")
    return Outcome(
        decided=status != "absent-truncated",
        explored=doc["explored"],
        truncated=int(status == "absent-truncated"),
    )


def check(item, rc, out: str, err: str, tables, lib) -> Outcome:
    """Judge one item from its exit code (None after a traceback) and output."""
    try:
        _require(rc is not None, f"traceback: {err.strip().splitlines()[-1:] or ''}")
        if rc == 2:
            _require(item.expect.get("limit_ok", False), f"unexpected exit 2: {err.strip()[:200]}")
            _require(err.startswith("error:") and "cap" in err and not out, f"exit 2 is no size limit: {err.strip()}")
            return Outcome(decided=False)
        doc = json.loads(out)
        if item.kind == "check":
            return _check_verdicts(item, doc, rc, tables)
        if item.kind == "witness":
            return _check_witness(item, doc, rc)
        if item.kind == "delta":
            return _check_delta(item, doc, rc)
        if item.kind == "axiom-check":
            return _check_axiom(item, doc, rc)
        return _check_derive(item, doc, rc, lib)
    except CheckFailed as exc:
        return Outcome(ok=False, decided=False, problem=str(exc))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(ok=False, decided=False, problem=f"malformed output: {exc!r}")
