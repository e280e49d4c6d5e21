"""Identity deciders: a brute-force oracle plus syntactic criteria.

The oracle works for any finite ai-semiring by a depth-first search over
assignments. The syntactic deciders settle identities in D2, S7, any
zero-adjunction S^0 (relative to a decider for S), and S7_0 without
evaluating a single assignment; cross_validate checks the two routes
against each other on randomly generated identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .algebra import FiniteSemiring, builtin
from .errors import SizeLimitError
from .terms import (
    Identity,
    Term,
    components,
    content,
    delta_sets,
    filter_content_subset,
    fold_words,
    format_word,
)

BRUTE_FORCE_CAP = 10**8


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decider, with a falsifying assignment or failure reason."""

    holds: bool
    witness: dict[str, str] | None = None
    reason: str | None = None
    details: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.reason is not None:
            out["reason"] = self.reason
        if self.details is not None:
            out["details"] = self.details
        return out


def holds_bruteforce(
    s: FiniteSemiring, ident: Identity, cap: int = BRUTE_FORCE_CAP
) -> Verdict:
    """Decide an identity by evaluating it under assignments into s.

    A depth-first search assigns the variables sorted by name, first
    variable outermost, each running through the elements in order, so
    the leaves come in mixed-radix order (last variable least significant)
    and the falsifying witness is deterministic. A word joins its side's
    running sum once its last variable is assigned. A subtree where both
    running sums have reached the additive top, the sum of all elements,
    is skipped: the top absorbs every element, so both sides evaluate to
    it at every leaf below, and the first falsifying leaf is that of a
    full scan. s must satisfy the ai-semiring laws, as every loader checks;
    a commutative-mode identity also needs a commutative multiplication.
    """
    if ident.commutative and s.mul != tuple(zip(*s.mul)):
        a, b = next(
            (a, b) for a in s.elements for b in s.elements
            if s.mul_named(a, b) != s.mul_named(b, a)
        )
        raise ValueError(
            "a commutative-mode identity needs a commutative multiplication, "
            f"but {a}*{b} != {b}*{a}"
        )
    variables = sorted(set().union(*ident.lhs.words, *ident.rhs.words))
    n, k = s.size, len(variables)
    if n**k > cap:
        # the power, not its value: past 4300 digits str() of an int raises
        raise SizeLimitError(f"brute force needs {n}^{k} assignments, cap is {cap}")
    if ident.is_trivial():
        return Verdict(True)
    index = {x: i for i, x in enumerate(variables)}.__getitem__
    # ends[d]: a side's words whose last variable in the order is variables[d]
    ends_lhs: list[list] = [[] for _ in variables]
    ends_rhs: list[list] = [[] for _ in variables]
    for side, ends in ((ident.lhs, ends_lhs), (ident.rhs, ends_rhs)):
        for w in side.words:
            w = tuple(map(index, w))
            ends[max(w)].append(w)
    add, mul = s.add, s.mul
    top = 0
    for e in range(n):
        top = add[top][e]
    last = k - 1
    leaf_lhs, leaf_rhs = ends_lhs[last], ends_rhs[last]
    asg = [0] * k
    # sums[d]: a side's running sum over the words ending above depth d
    lhs_sums = [-1] * k
    rhs_sums = [-1] * k
    d = 0
    while True:
        left, right = lhs_sums[d], rhs_sums[d]
        if d < last:
            if ends_lhs[d]:
                left = fold_words(ends_lhs[d], add, mul, asg, left)
            if ends_rhs[d]:
                right = fold_words(ends_rhs[d], add, mul, asg, right)
            if left != top or right != top:
                d += 1
                lhs_sums[d], rhs_sums[d] = left, right
                continue
        else:
            # the leaves: all n digits of the last variable in one loop
            if left != top or right != top:
                for e in range(n):
                    asg[d] = e
                    if leaf_lhs:
                        left = fold_words(leaf_lhs, add, mul, asg, lhs_sums[d])
                    if leaf_rhs:
                        right = fold_words(leaf_rhs, add, mul, asg, rhs_sums[d])
                    if left != right:
                        witness = {x: s.elements[asg[i]] for i, x in enumerate(variables)}
                        return Verdict(
                            False,
                            witness=witness,
                            reason=(
                                f"sides evaluate to {s.elements[left]} "
                                f"and {s.elements[right]}"
                            ),
                        )
            asg[d] = n - 1
        # next sibling, backing up over exhausted digits
        while asg[d] == n - 1:
            asg[d] = 0
            if d == 0:
                return Verdict(True)
            d -= 1
        asg[d] += 1


def _component_label(base: Term, q) -> str:
    return f"{base} == {base} + {format_word(q)}"


def holds_s7(ident: Identity) -> Verdict:
    """Decide an identity in S7: contents must match and so must the
    delta-set families of the two sides."""
    cu, cv = content(ident.lhs), content(ident.rhs)
    if cu != cv:
        return Verdict(
            False,
            reason=(
                "content mismatch, only on one side: "
                f"{', '.join(sorted(cu ^ cv))}"
            ),
            details={
                "clause": "content",
                "only_lhs": sorted(cu - cv),
                "only_rhs": sorted(cv - cu),
            },
        )
    du, dv = delta_sets(ident.lhs), delta_sets(ident.rhs)
    if du != dv:
        separating = min(du ^ dv, key=lambda z: (len(z), sorted(z)))
        return Verdict(
            False,
            reason=(
                "delta-set mismatch, separating set "
                f"{{{','.join(sorted(separating))}}}"
            ),
            details={
                "clause": "delta",
                "separating": sorted(separating),
                "in_lhs": separating in du,
            },
        )
    return Verdict(True)


BaseDecider = Callable[[FiniteSemiring, Identity], Verdict]


def holds_s0_lift(s: FiniteSemiring, base_decider: BaseDecider, ident: Identity) -> Verdict:
    """Decide an identity in the zero-adjunction of s, given a decider for s.

    Each component u ≈ u+q holds in s^0 exactly when the words of u with
    content inside c(q) are nonempty and, writing D for that subset,
    D ≈ D+q holds in s. A failure names the component and the clause:
    empty-cover, or the base verdict's own clause and details (clause
    "base" with the base verdict embedded when the base gives no clause).
    A component whose q is already a word of u holds in every semiring and
    is skipped.
    """
    word_sets = {side: side.word_set() for side in (ident.lhs, ident.rhs)}
    for base, q in components(ident):
        if q in word_sets[base]:
            continue
        cover = filter_content_subset(base, q)
        if not cover:
            label = _component_label(base, q)
            return Verdict(
                False,
                reason=(
                    f"component {label}: no word has "
                    f"content within c({format_word(q)})"
                ),
                details={"component": label, "clause": "empty-cover"},
            )
        reduced = Term(cover, base.commutative)
        sub = base_decider(s, Identity(reduced, reduced.add_word(q)))
        if not sub.holds:
            label = _component_label(base, q)
            if sub.details and "clause" in sub.details:
                carried = sub.details
            else:
                carried = {"clause": "base", "base": sub.to_dict()}
            return Verdict(
                False,
                reason=(
                    f"component {label}: on the cover {reduced}, "
                    f"{sub.reason or 'the base decider fails'}"
                ),
                details={"component": label, **carried},
            )
    return Verdict(True)


_S7 = builtin("S7")
_TRIVIAL = builtin("trivial")


def holds_d2(ident: Identity) -> Verdict:
    """Decide an identity in the 2-element distributive lattice, the
    zero-adjunction of the trivial semiring: each component u ≈ u+q holds
    exactly when some word of u has content within the content of q."""
    return holds_s0_lift(_TRIVIAL, lambda s, i: Verdict(True), ident)


def holds_s7_0(ident: Identity) -> Verdict:
    """Decide an identity in S7_0 as the zero-adjunction of S7: per
    component, a nonempty content cover, then cover content equal to c(q)
    and equal delta-set families of the cover with and without q."""
    return holds_s0_lift(_S7, lambda s, i: holds_s7(i), ident)


def _holds_trivial(ident: Identity) -> Verdict:
    return Verdict(True, reason="the one-element semiring satisfies every identity")


def syntactic_decider(name: str) -> Callable[[Identity], Verdict]:
    """The syntactic decider for a builtin semiring name. The table is built
    per call so that it holds the module's current bindings of the deciders."""
    table = {"D2": holds_d2, "S7": holds_s7, "S7_0": holds_s7_0, "trivial": _holds_trivial}
    if name not in table:
        raise ValueError(
            f"no syntactic decider is defined for semiring {name!r}; "
            f"the builtin names {', '.join(table)} have one"
        )
    return table[name]


def random_identity(
    rng: random.Random,
    max_vars: int,
    max_words: int,
    max_word_len: int,
    commutative: bool = False,
) -> Identity:
    """One random identity: uniform variable count, word count and lengths."""
    k = rng.randint(1, max_vars)
    alphabet = [f"x{i}" for i in range(1, k + 1)]

    def side() -> Term:
        count = rng.randint(1, max_words)
        words = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_word_len)))
            for _ in range(count)
        ]
        return Term(words, commutative)

    return Identity(side(), side())


@dataclass
class CrossValReport:
    """Agreement report between a syntactic decider and the oracle."""

    semiring: str
    samples: int
    seed: int
    bounds: dict
    disagreements: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        return {
            "semiring": self.semiring,
            "samples": self.samples,
            "seed": self.seed,
            "bounds": self.bounds,
            "disagreements": self.disagreements,
        }


def cross_validate(
    s: FiniteSemiring,
    syntactic: Callable[[Identity], Verdict],
    samples: int,
    seed: int,
    max_vars: int = 4,
    max_words: int = 4,
    max_word_len: int = 4,
    commutative: bool = False,
    label: str = "",
    cap: int = BRUTE_FORCE_CAP,
) -> CrossValReport:
    """Generate seeded random identities and compare decider vs oracle.

    Any disagreement is recorded with the full identity; none is expected.
    """
    rng = random.Random(seed)
    report = CrossValReport(
        semiring=label or repr(s),
        samples=samples,
        seed=seed,
        bounds={
            "max_vars": max_vars,
            "max_words": max_words,
            "max_word_len": max_word_len,
            "commutative": commutative,
        },
    )
    for _ in range(samples):
        ident = random_identity(rng, max_vars, max_words, max_word_len, commutative)
        syn = syntactic(ident)
        oracle = holds_bruteforce(s, ident, cap=cap)
        if syn.holds != oracle.holds:
            report.disagreements.append(
                {
                    "identity": str(ident),
                    "syntactic": syn.holds,
                    "oracle": oracle.holds,
                    "oracle_witness": oracle.witness,
                }
            )
    return report
