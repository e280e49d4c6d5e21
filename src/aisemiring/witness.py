"""The odd-cycle witness family and shape checks for candidate axioms.

make_witness builds the pair (u, q) where u sums the edges of an odd
cycle on 2n+1 variables and q multiplies all of them; check_witness_facts
verifies its defining facts mechanically. check_axiom_conditions tests a
candidate axiom A ≈ B against the four structural conditions that the
witness identities are designed to escape.
"""

from __future__ import annotations

from collections import Counter

from .algebra import builtin
from .deciders import holds_bruteforce, holds_s7_0
from .errors import SizeLimitError
from .graphs import odd_cycle, term_graph
from .parsing import MAX_WORD_LENGTH
from .records import Record, set_field
from .terms import (
    Identity,
    Term,
    Word,
    content,
    delta_key,
    delta_sets,
    format_word,
    is_linear,
)

# The most variables the oracle fact takes unless forced: S7_0's four
# elements give at most 4^8 = 65,536 assignments, witnesses n <= 3.
ORACLE_VARIABLE_LIMIT = 8


class WitnessPair(Record):
    """The pair (u, q): u sums the 2n+1 edge words of an odd cycle on
    x1..x(2n+1), q is the product of all 2n+1 variables."""

    __slots__ = ("n", "u", "q")

    def __init__(self, n: int, u: Term, q: Word):
        set_field(self, "n", n)
        set_field(self, "u", u)
        set_field(self, "q", q)

    @property
    def identity(self) -> Identity:
        return Identity(self.u, self.u.add_word(self.q))


def make_witness(n: int) -> WitnessPair:
    """Build the n-th witness pair, in commutative mode. The word q has
    2n+1 letters, so n is bounded by the parser's word length bound."""
    if n < 1:
        raise ValueError("witness index n must be at least 1")
    k = 2 * n + 1
    if k > MAX_WORD_LENGTH:
        raise ValueError(
            f"witness index n must be at most {(MAX_WORD_LENGTH - 1) // 2}: q would have "
            f"{k} letters, over the word length bound {MAX_WORD_LENGTH}"
        )
    xs = [f"x{i}" for i in range(1, k + 1)]
    words = [(xs[i], xs[(i + 1) % k]) for i in range(k)]
    return WitnessPair(n=n, u=Term(words, commutative=True), q=tuple(xs))


class FactCheck(Record):
    __slots__ = ("name", "passed", "note")

    def __init__(self, name: str, passed: bool | None, note: str = ""):
        set_field(self, "name", name)
        set_field(self, "passed", passed)  # None: the check was skipped
        set_field(self, "note", note)


class WitnessReport(Record):
    __slots__ = ("n", "checks")

    def __init__(self, n: int, checks: tuple[FactCheck, ...]):
        set_field(self, "n", n)
        set_field(self, "checks", checks)

    @property
    def ok(self) -> bool:
        """No check failed (skipped checks do not count against)."""
        return all(c.passed is not False for c in self.checks)

    def check(self, name: str) -> FactCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "note": c.note}
                for c in self.checks
            ],
        }


def check_witness_facts(pair: WitnessPair, force_oracle: bool = False) -> WitnessReport:
    """Check the facts that make the witness family work.

    Contents of u and q coincide, delta_sets(u) is empty, the graph of u
    is an odd cycle of full length, and u ≈ u+q holds in the 4-element
    zero-adjoined semiring, by the syntactic criterion always and by the
    brute-force oracle whenever the 2n+1 variables stay within
    ORACLE_VARIABLE_LIMIT (force_oracle runs it regardless, within the
    oracle's node budget). A skipped oracle is reported as such, with the
    limit that stopped it, without blocking the others.
    """
    u, q, n = pair.u, pair.q, pair.n
    checks: list[FactCheck] = []

    checks.append(
        FactCheck(
            "contents-equal",
            content(u) == frozenset(q),
            f"c(u) and c({format_word(q)}) both have {len(content(u))} variables",
        )
    )

    d = delta_sets(u)
    checks.append(FactCheck("delta-empty", not d, f"delta family has {len(d)} members"))

    found = odd_cycle(term_graph(u))
    if found.cycle is None:
        checks.append(FactCheck("odd-cycle", False, "graph of u is bipartite"))
    else:
        length = len(found.cycle)
        checks.append(
            FactCheck(
                "odd-cycle",
                length == 2 * n + 1,
                f"odd cycle of length {length}, expected {2 * n + 1}",
            )
        )

    ident = pair.identity
    syn = holds_s7_0(ident)
    checks.append(FactCheck("syntactic", syn.holds, syn.reason or "criterion satisfied"))

    try:
        if not force_oracle and 2 * n + 1 > ORACLE_VARIABLE_LIMIT:
            raise SizeLimitError(
                "ORACLE_VARIABLE_LIMIT", 2 * n + 1, ORACLE_VARIABLE_LIMIT, "variables"
            )
        oracle = holds_bruteforce(builtin("S7_0"), ident)
        checks.append(
            FactCheck(
                "oracle",
                oracle.holds,
                oracle.reason or f"{oracle.stats['nodes']} nodes visited",
            )
        )
    except SizeLimitError as exc:
        checks.append(FactCheck("oracle", None, str(exc)))

    return WitnessReport(n=n, checks=tuple(checks))


class ConditionCheck(Record):
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str = ""):
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "witness", witness)  # what violated the condition, when failed


class ConditionReport(Record):
    """Conditions (a)-(d) on a candidate axiom A ≈ B, plus the delta
    family of A and the two deductions the conditions feed."""

    __slots__ = ("conditions", "delta", "every_variable_covered", "b_subset_a", "cycle")

    def __init__(
        self,
        conditions: tuple[ConditionCheck, ...],
        delta: tuple[frozenset[str], ...],
        every_variable_covered: bool,
        b_subset_a: bool,
        cycle: list[str] | None,
    ):
        set_field(self, "conditions", conditions)
        set_field(self, "delta", delta)
        set_field(self, "every_variable_covered", every_variable_covered)
        set_field(self, "b_subset_a", b_subset_a)
        set_field(self, "cycle", cycle)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionCheck:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "conditions": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.conditions
            ],
            "ok": self.ok,
            "delta": [sorted(z) for z in self.delta],
            "every_variable_covered": self.every_variable_covered,
            "b_subset_a": self.b_subset_a,
            "cycle": self.cycle,
        }


CONDITION_TEXT = {
    "a": "every word has length at most 2",
    "b": "every word is linear",
    "c": "no word is a proper subword of another",
    "d": "the length-2 words form no odd cycle",
}


def check_axiom_conditions(a: Term, b: Term) -> ConditionReport:
    """Check the candidate axiom A ≈ B against the structural conditions.

    (a) word lengths at most 2; (b) all words linear; (c) the words form
    an antichain under the subword order, read as letter-multiset
    inclusion; (d) the graph of A contains no odd cycle, up to relabeling.
    Also reports delta_sets(A), whether every variable of A lies in some
    member, and whether B's words are among A's.
    """
    checks: list[ConditionCheck] = []

    long_words = [w for w in a.words if len(w) > 2]
    checks.append(
        ConditionCheck(
            "a",
            not long_words,
            format_word(long_words[0]) if long_words else "",
        )
    )

    nonlinear = [w for w in a.words if not is_linear(w)]
    checks.append(
        ConditionCheck(
            "b",
            not nonlinear,
            format_word(nonlinear[0]) if nonlinear else "",
        )
    )

    # a subword is no longer and has no new letter; only pairs passing
    # both cheap tests compare letter multisets
    violation = ""
    contents = [(w, frozenset(w)) for w in a.words]
    for w1, s1 in contents:
        for w2, s2 in contents:
            if w1 != w2 and len(w1) <= len(w2) and s1 <= s2 and Counter(w1) <= Counter(w2):
                violation = (
                    f"{format_word(w1)} is a subword of the distinct word "
                    f"{format_word(w2)}"
                )
                break
        if violation:
            break
    checks.append(ConditionCheck("c", not violation, violation))

    found = odd_cycle(term_graph(a, ignore_nonsimple=True))
    checks.append(
        ConditionCheck(
            "d",
            found.cycle is None,
            " -> ".join(found.cycle) if found.cycle else "",
        )
    )

    delta = tuple(sorted(delta_sets(a), key=delta_key))
    covered = all(any(x in z for z in delta) for x in sorted(content(a)))

    return ConditionReport(
        conditions=tuple(checks),
        delta=delta,
        every_variable_covered=covered,
        b_subset_a=b.word_set() <= a.word_set(),
        cycle=found.cycle,
    )
