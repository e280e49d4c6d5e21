"""Identity deciders: a brute-force oracle plus syntactic criteria.

The oracle works for any finite ai-semiring by a depth-first search over
assignments. The syntactic deciders settle identities in D2, S7, any
zero-adjunction S^0 (relative to a decider for S), and S7_0 without
evaluating a single assignment; cross_validate checks the two routes
against each other on randomly generated identities.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import Callable

from .algebra import FiniteSemiring
from .errors import SizeLimitError
from .records import Record, set_field
from .terms import (
    Identity,
    Term,
    components,
    content,
    delta_key,
    delta_sets,
    filter_content_subset,
    format_delta,
    format_word,
)

ORACLE_NODE_BUDGET = 1_000_000
# The most leaves a search over the variables in name order may have. Name
# order is not cheaper per search: on 6-variable S7_0 identities that hold,
# a search visits 193 nodes (0.24 ms) in name order and 80 (0.13 ms) in
# shape order, on average. But its first falsifying leaf is the witness, so it skips
# _search_order and the runs that fix a witness in name order (see
# holds_bruteforce). On many small checks that saving wins: shape order
# everywhere made the benchmark's check-mixed workload 31 % slower in wall
# time. So the input size picks the path, trading the one cost against
# the other.
NAME_ORDER_LEAVES = 4096
# the oracle's work counts: the one list of its stats keys, in report order
ORACLE_STATS = ("nodes", "memo_hits", "top_pruned", "settled_pruned")


class Verdict(Record):
    """Outcome of a decider, with a falsifying assignment or failure reason,
    and optional counters of the work done."""

    __slots__ = ("holds", "witness", "reason", "details", "stats")

    def __init__(
        self,
        holds: bool,
        witness: dict[str, str] | None = None,
        reason: str | None = None,
        details: dict | None = None,
        stats: dict | None = None,
    ):
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)
        set_field(self, "reason", reason)
        set_field(self, "details", details)
        set_field(self, "stats", stats)

    def to_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.reason is not None:
            out["reason"] = self.reason
        if self.details is not None:
            out["details"] = self.details
        if self.stats is not None:
            out["stats"] = self.stats
        return out


# hit by identities repeated in one process (crossval, library callers, the
# benchmark's rounds); a one-identity CLI process plans each word once
@lru_cache(maxsize=4096)
def _word_plan(w: tuple[int, ...], offset: int) -> tuple:
    """How the oracle evaluates a word given by variable indices, one
    variable at a time, with the word's cells in the oracle's memory from
    offset on.

    After depth d the word's assigned letters (index at most d) form
    maximal runs, and the oracle keeps the product of each: a run of one
    letter is that variable's value, a longer run has a cell of its own.
    A run is named by its place in memory: its variable's index, or its
    cell's. Assigning d creates the runs that hold its letters, each
    absorbing its neighbours, with the product of their names; the other
    runs stay. Returns (size, steps, last, first, rest): size is the number
    of cells; steps has a (d, made, gone, live) tuple for each variable d
    of the word, in increasing order, with made a (cell, first, rest)
    product per new run with a cell, gone and live the names of the runs
    absorbed and created; at the last variable, last, all runs join into
    the whole word, the product of first and rest, and no run is made or
    left live. Runs are kept under their end positions, so a letter at p
    finds the run on its left under last position p - 1 and the one on its
    right under first position p + 1, and a word costs linear time.
    """
    positions: dict[int, list[int]] = {}
    for p, x in enumerate(w):
        positions.setdefault(x, []).append(p)
    starts: dict[int, list] = {}  # each run [first, last position, names] by its first position
    ends: dict[int, list] = {}  # and by its last
    cells = count(offset)
    steps = []
    last = max(positions)
    for d in sorted(positions):
        created: list[list] = []  # the runs that hold d's letters, left to right
        for p in positions[d]:
            run = ends.pop(p - 1, None)
            if run is None:
                run = starts[p] = [p, p, []]
            if not created or run is not created[-1]:
                created.append(run)
            run[2].append(d)
            right = starts.pop(p + 1, None)
            if right:
                run[2] += right[2]
            run[1] = right[1] if right else p
            ends[run[1]] = run
        gone = tuple(t for run in created for t in run[2] if t != d)  # absorbed runs are named otherwise
        if d == last:
            break
        made = []
        for run in created:
            head, *rest = run[2]
            if rest:
                run[2] = [next(cells)]
                made.append((run[2][0], head, tuple(rest)))
        steps.append((d, tuple(made), gone, tuple(run[2][0] for run in created)))
    steps.append((last, (), gone, ()))
    first, *rest = created[0][2]
    return next(cells) - offset, tuple(steps), last, first, tuple(rest)


def _search_order(words: list[tuple[str, ...]], commutative: bool) -> list[str]:
    """The variables of the words in the order the oracle assigns them,
    chosen from the shape of the words so that few runs are open at once.

    The next variable is, first, the last unassigned one of a word with
    letters assigned, which closes that word; else one next to an assigned
    letter of some word, which extends a run (in commutative mode, where
    the oracle orders a word's letters as it likes, any letter of a word
    with letters assigned); else any. Ties go to the variable with the
    fewest letters in the words, then to the first by name, so the names
    only break ties: a renaming of the variables leaves the search about
    as large, which sorting by name does not (a cycle whose names are
    shuffled against it keeps more runs open, and over a 6-element table
    the search grew tenfold). Stale heap entries are skipped, so the order
    costs O(L log L) for L letters.
    """
    from heapq import heapify, heappop, heappush

    places: dict[str, list[tuple[int, int]]] = {}  # each variable's (word, position)
    for i, w in enumerate(words):
        for p, x in enumerate(w):
            places.setdefault(x, []).append((i, p))
    sizes = [len(set(w)) for w in words]
    unassigned = list(sizes)  # per word, its variables not yet in the order
    level = dict.fromkeys(places, 2)
    heap = [(2, len(at), x) for x, at in places.items()]
    heapify(heap)
    order: list[str] = []

    def lower(x: str, to: int) -> None:
        if to < level[x]:
            level[x] = to
            heappush(heap, (to, len(places[x]), x))

    while heap:
        at, _, x = heappop(heap)
        if at != level[x]:
            continue
        level[x] = -1  # ordered: below every entry, so lower skips it
        order.append(x)
        for i in {i for i, _ in places[x]}:
            unassigned[i] -= 1
            if unassigned[i] == 1:
                lower(next(y for y in words[i] if level[y] >= 0), 0)
            elif commutative and unassigned[i] == sizes[i] - 1:
                for y in words[i]:
                    lower(y, 1)
        if not commutative:
            for i, p in places[x]:
                w = words[i]
                if p:
                    lower(w[p - 1], 1)
                if p + 1 < len(w):
                    lower(w[p + 1], 1)
    return order


def _live_getters(word_steps: list[tuple], k: int) -> list:
    """Per depth, the getter of the memory indices of the live runs, those
    of the words with letters assigned and unassigned, or None if none is
    live; word_steps holds the steps of each word's plan (see _word_plan),
    as _Search made them."""
    changes: list[list] = [[] for _ in range(k)]  # per depth, (gone, created) runs
    for steps in word_steps:
        for d, _, gone, created in steps:
            changes[d].append((gone, created))
    getters = []
    live: dict[int, int] = {}  # the memory index of each live run, with its count
    for depth_changes in changes:
        for gone, created in depth_changes:
            for t in gone:
                live[t] -= 1
                if not live[t]:
                    del live[t]
            for t in created:
                live[t] = live.get(t, 0) + 1
        getters.append(itemgetter(*live) if live else None)
    return getters


def _state(getter, mem: list, left: int, right: int) -> tuple:
    """The live state after a depth: the two running sums, and the live
    run products that getter picks from mem."""
    return (left, right, getter(mem)) if getter else (left, right)


class _Search:
    """The oracle's depth-first search over one identity with its variables
    in a fixed order, each bounded to a range of values. Its list counts
    holds the work of all its runs, ordered as ORACLE_STATS, the one list
    of the stats keys.

    The variables are coded by their depth in the order. Each distinct
    word keeps the products of the maximal runs of its assigned letters,
    updated at its own variables only (see _word_plan); at its last
    variable that is the word's value, and it joins the running sum of
    each side it is on. A word on both sides, as every word of u in
    u ≈ u+q, is planned and multiplied out once: its run products are the
    same for either side, so a second copy would add nothing to the live
    state. mem holds the value of each variable, then the cells of the
    words. Each product is of mem at the indices first and rest: runs[d]
    holds (cell, first, rest) for each run made at depth d, stored in
    mem[cell], and closing[d] holds (target, first, rest) for each word
    closing at depth d, joining the running sum of the lhs (target -1),
    of the rhs (-2) or of both (-3). A word with the last variable closes
    there, so no run is made at the last depth. A running sum over no
    word yet is the index n, one past the elements, whose row in the
    addition table add (the semiring's add_with_empty) gives each element
    back, so a word joins a sum by one lookup whether or not it is the
    first.
    """

    def __init__(self, s: FiniteSemiring, ident: Identity, order: list[str]):
        k = len(order)
        index = dict(zip(order, range(k))).__getitem__
        # each coded word with the sides it is on: -1 lhs, -2 rhs, -3 both;
        # the words of one side are distinct
        targets: dict[tuple[int, ...], int] = {}
        for target, side in ((-1, ident.lhs.words), (-2, ident.rhs.words)):
            for w in side:
                # in commutative mode a word's letters are taken in search
                # order, so its assigned letters always form one run
                coded = tuple(sorted(map(index, w))) if ident.commutative else tuple(map(index, w))
                targets[coded] = targets.get(coded, 0) + target
        mem = [0] * k
        runs: list[list] = [[] for _ in order]
        closing: list[list] = [[] for _ in order]
        word_steps = []
        # one bit per word: per variable the words it is in, per depth the
        # one-sided words closing there, and per side its words
        words_of = [0] * k
        closes = [0] * k
        lhs_words = rhs_words = 0
        for i, (w, target) in enumerate(targets.items()):
            bit = 1 << i
            size, steps, last, first, rest = _word_plan(w, len(mem))
            mem += [-1] * size
            for d, made, _, _ in steps:
                runs[d] += made
                words_of[d] |= bit
            closing[last].append((target, first, rest))
            word_steps.append(steps)
            if target != -2:
                lhs_words |= bit
            if target != -1:
                rhs_words |= bit
            if target != -3:
                closes[last] |= bit
        one_sided_open = [0] * k  # per depth, the one-sided words closing below it
        for d in range(k - 1, 0, -1):
            one_sided_open[d - 1] = one_sided_open[d] | closes[d]
        n = s.size
        self.s, self.k, self.top, self.add = s, k, s.additive_top, s.add_with_empty
        self.word_steps, self.mem, self.runs, self.closing = word_steps, mem, runs, closing
        self.zero, self.words_of, self.one_sided_open = s.multiplicative_zero, words_of, one_sided_open
        self.lhs_words, self.rhs_words = lhs_words, rhs_words
        self.held = None  # per depth, the getter of the live run products, on first need
        self.lo, self.hi = [0] * k, [n - 1] * k
        self.cleared: dict[int, set] = {}  # per depth, the keys of exhausted subtrees
        self.since_bound: list[tuple[int, tuple]] = []  # (depth, key) cleared since bound()
        self.counts = [0] * len(ORACLE_STATS)

    def stats(self) -> dict:
        # a literal: 0.18 µs per verdict, dict(zip(...)) 0.43 (CPython 3.11)
        (k0, k1, k2, k3), (n0, n1, n2, n3) = ORACLE_STATS, self.counts
        return {k0: n0, k1: n1, k2: n2, k3: n3}

    def bound(self, d: int, e: int) -> None:
        """Bound variable d to the value e, within its old bounds or, after
        a run with d bound to another value, outside them. In the second
        case the keys that run cleared at depths above d are forgotten, as
        they hold for that value of d only; every other key stays true, as
        the bounds below it only narrowed since."""
        if not self.lo[d] <= e <= self.hi[d]:
            for j, state in self.since_bound:
                if j < d:
                    self.cleared[j].discard(state)
        self.since_bound = []
        self.lo[d] = self.hi[d] = e

    def first_leaf(self):
        """The first falsifying leaf within the bounds: the tuple of the
        values and the values of the two sides there; None if every leaf
        within the bounds satisfies the identity. Every node, inner or
        leaf, stores its depth's run products and folds each word closing
        there into the lhs sum, the rhs sum or both (targets -1, -2, -3);
        both sums start at the empty sum, index n, whose row in the
        addition table gives each element back. A leaf falsifies when the
        sums differ. Three kinds of subtree are skipped:
        - where both running sums have reached the additive top, the sum
          of all elements: the top absorbs every element, so both sides
          evaluate to it at every leaf below;
        - where every open word on one side only is settled (a letter of
          it is valued the multiplicative zero z), and the two sums agree
          once z is added to each side with a settled word: a settled word
          is z at every leaf below, so z is in that side's sum at every
          leaf and, + being idempotent, adding it once more changes
          nothing; the open words on both sides add the same to each.
          Without a zero, or with no one-sided word open, only shared
          words remain, and the sums must already agree. The words are
          the bits of masks, and the settled ones pass down per depth as
          the sums do, so a node tests them with one OR and one AND-NOT;
        - where the live state (the two running sums and the run products
          of the open words, those with letters assigned and unassigned)
          equals that of a subtree searched to the end without a
          falsifying leaf, in this run or an earlier one with wider
          bounds below it: the leaves below depend on nothing else. This
          is the caching step of bucket elimination (Dechter, "Bucket
          elimination: a unifying framework for reasoning", AI 113, 1999).
          Nodes whose children are leaves are not memoised: their leaves
          cost about what a key does.
        No skip passes a falsifying leaf. At the node past
        ORACLE_NODE_BUDGET (internal ones and leaves, over all runs) it
        raises SizeLimitError.
        """
        mem, runs, closing, top, cleared = self.mem, self.runs, self.closing, self.top, self.cleared
        since_bound = self.since_bound
        lo, hi = self.lo, self.hi
        add, mul = self.add, self.s.mul
        zero, words_of, one_sided_open = self.zero, self.words_of, self.one_sided_open
        lhs_words, rhs_words = self.lhs_words, self.rhs_words
        nodes, memo_hits, top_pruned, settled_pruned = self.counts
        budget = ORACLE_NODE_BUDGET
        k = self.k
        last = k - 1
        mem[:k] = lo
        # sums[d]: a side's running sum over the words ending above depth d,
        # from the empty sum
        lhs_sums = [self.s.size] * k
        rhs_sums = [self.s.size] * k
        # settled[d]: the words with a letter above depth d valued zero
        settled = [0] * k
        d = 0
        while True:
            nodes += 1
            if nodes > budget:
                raise SizeLimitError("ORACLE_NODE_BUDGET", nodes, budget, "nodes visited")
            for cell, first, rest in runs[d]:
                v = mem[first]
                for t in rest:
                    v = mul[v][mem[t]]
                mem[cell] = v
            left, right = lhs_sums[d], rhs_sums[d]
            for target, first, rest in closing[d]:
                v = mem[first]
                for t in rest:
                    v = mul[v][mem[t]]
                if target == -1:
                    left = add[left][v]
                elif target == -2:
                    right = add[right][v]
                else:
                    left, right = add[left][v], add[right][v]
            if d == last:
                if left != right:
                    self.counts = [nodes, memo_hits, top_pruned, settled_pruned]
                    return tuple(mem[:k]), left, right
            elif left == top and right == top:
                top_pruned += 1
            else:
                here = settled[d] | words_of[d] if mem[d] == zero else settled[d]
                if not one_sided_open[d] & ~here and (
                    add[left][zero] if here & lhs_words else left
                ) == (add[right][zero] if here & rhs_words else right):
                    settled_pruned += 1
                elif d in cleared and _state(self.held[d], mem, left, right) in cleared[d]:
                    memo_hits += 1
                else:
                    d += 1
                    lhs_sums[d], rhs_sums[d], settled[d] = left, right, here
                    continue
            # next sibling, backing up over exhausted digits; a node all of
            # whose children are exhausted clears its key
            while mem[d] == hi[d]:
                if d == 0:
                    self.counts = [nodes, memo_hits, top_pruned, settled_pruned]
                    return None
                mem[d] = lo[d]
                d -= 1
                if d < last - 1:
                    # the node handed its sums down, and no deeper depth
                    # writes the run products in its key
                    if self.held is None:
                        self.held = _live_getters(self.word_steps, k)
                    state = _state(self.held[d], mem, lhs_sums[d + 1], rhs_sums[d + 1])
                    cleared.setdefault(d, set()).add(state)
                    since_bound.append((d, state))
            mem[d] += 1


def holds_bruteforce(s: FiniteSemiring, ident: Identity) -> Verdict:
    """Decide an identity by evaluating it under assignments into s.

    A depth-first search (_Search) assigns the variables one by one, each
    running through the elements in order, and skips subtrees whose
    leaves are known to agree. The witness of a failing identity is the
    first falsifying assignment in mixed-radix order with the variables
    sorted by name (last one least significant), the one a full scan
    meets first. With at most NAME_ORDER_LEAVES leaves the search takes
    the variables in that order, so its first falsifying leaf is the
    witness. Past it the search takes them in the order _search_order
    draws from the shape of the words, which keeps the memo's states few
    whatever the names; its first falsifying leaf is then a witness, and
    _fix_in_name_order finds the first one in name order. Past
    ORACLE_NODE_BUDGET nodes visited over all runs the search raises
    SizeLimitError. The verdict's stats are the counts over all runs, keyed
    and ordered by ORACLE_STATS (a trivial identity counts 0 of each; see
    _Search.first_leaf for the skips). s must satisfy the ai-semiring laws,
    as every loader checks; a commutative-mode identity also needs a
    commutative multiplication.
    """
    if ident.commutative and not s.mul_commutes:
        a, b = next(
            (a, b) for a in s.elements for b in s.elements
            if s.mul_named(a, b) != s.mul_named(b, a)
        )
        raise ValueError(
            "a commutative-mode identity needs a commutative multiplication, "
            f"but {a}*{b} != {b}*{a}"
        )
    if ident.is_trivial():
        return Verdict(True, stats=dict.fromkeys(ORACLE_STATS, 0))
    variables = sorted(set().union(*ident.lhs.words, *ident.rhs.words))
    if s.size ** len(variables) <= NAME_ORDER_LEAVES:
        order = variables
    else:
        order = _search_order([*ident.lhs.words, *ident.rhs.words], ident.commutative)
    search = _Search(s, ident, order)
    found = search.first_leaf()
    if found is None:
        return Verdict(True, stats=search.stats())
    if order is not variables:
        found = _fix_in_name_order(search, order, variables, found)
    values, left, right = found
    return Verdict(
        False,
        witness=dict(zip(variables, map(s.elements.__getitem__, values))),
        reason=f"sides evaluate to {s.elements[left]} and {s.elements[right]}",
        stats=search.stats(),
    )


def _fix_in_name_order(search: _Search, order: list[str], variables: list[str], found: tuple) -> tuple:
    """The first falsifying leaf with the variables sorted by name, given
    found, the search's first one in its own order: the variables are
    fixed in name order, each to its least value that still has a
    falsifying leaf, by further runs with the fixed ones bounded to their
    values. A variable all of whose shallower depths are fixed takes no
    run: the last run passed every leaf with those values and a smaller
    value of it before its falsifying leaf. Returns the values in name
    order and the values of the two sides there."""
    depth = dict(zip(order, range(len(order))))
    fixed = 0  # the depths above it are bound to one value each
    for x in variables:
        d = depth[x]
        for e in range(found[0][d] if d > fixed else 0):
            search.bound(d, e)
            leaf = search.first_leaf()
            if leaf:
                found = leaf
                break
        search.bound(d, found[0][d])
        while fixed < len(order) and search.lo[fixed] == search.hi[fixed]:
            fixed += 1
    values, left, right = found
    return [values[depth[x]] for x in variables], left, right


def _component_label(base: Term, q) -> str:
    text = str(base)
    return f"{text} == {text} + {format_word(q)}"


def _unmet(side: Term, added: frozenset) -> list[frozenset[str]]:
    """The members of delta(side) that some word of added meets in other
    than one letter occurrence. When side and side + added have equal
    contents, these are exactly the members of delta(side) missing from
    delta(side + added): the words of side meet every member once. side is
    searched only when added is nonempty."""
    if not added:
        return []
    return [z for z in delta_sets(side) if any(sum(x in z for x in w) != 1 for w in added)]


def holds_s7(ident: Identity) -> Verdict:
    """Decide an identity in S7: contents must match and so must the
    delta-set families of the two sides. With equal contents, a member of
    one side's family is missing from the other's exactly when some word
    only the other side has meets it in other than one letter occurrence
    (_unmet). So a side is searched only when the other has a word it
    lacks: D ≈ D+q, as in every component of the S^0 lift, costs one
    delta search, on D, and equal word sets cost none."""
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
    lw, rw = ident.lhs.word_set(), ident.rhs.word_set()
    only_lhs = _unmet(ident.lhs, rw - lw)
    only_rhs = _unmet(ident.rhs, lw - rw)
    if only_lhs or only_rhs:
        separating = min(only_lhs + only_rhs, key=delta_key)
        letters = sorted(separating)
        return Verdict(
            False,
            reason=f"delta-set mismatch, separating set {format_delta([letters])}",
            details={
                "clause": "delta",
                "separating": letters,
                "in_lhs": separating in only_lhs,
            },
        )
    return Verdict(True)


def holds_s0_lift(base_decider: Callable[[Identity], Verdict] | None, ident: Identity) -> Verdict:
    """Decide an identity in the zero-adjunction S^0 of a semiring S, given
    a decider for S (for the oracle, partial(holds_bruteforce, S)), or None
    for the trivial S, which satisfies every identity: then only the cover
    clause is checked.

    Each component u ≈ u+q holds in S^0 exactly when the words of u with
    content inside c(q) are nonempty and, writing D for that subset,
    D ≈ D+q holds in S. A failure names the component and the clause:
    empty-cover, or the base verdict's own clause and details (clause
    "base" with the base verdict embedded when the base gives no clause).
    A component whose q is already a word of u holds in every semiring and
    is skipped. With holds_s7 as base, each other component costs one
    delta search, on D, as only D + q has a word that D lacks.
    """
    for base, q in components(ident):
        if q in base.word_set():
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
        if base_decider is None:
            continue
        # all of base keeps base itself, with what it already worked out
        reduced = base if len(cover) == len(base) else Term(cover, base.commutative)
        sub = base_decider(Identity(reduced, reduced.add_word(q)))
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


def _holds_trivial(ident: Identity) -> Verdict:
    return Verdict(True, reason="the one-element semiring satisfies every identity")


def holds_d2(ident: Identity) -> Verdict:
    """Decide an identity in the 2-element distributive lattice, the
    zero-adjunction of the trivial semiring: each component u ≈ u+q holds
    exactly when some word of u has content within the content of q."""
    return holds_s0_lift(None, ident)


def holds_s7_0(ident: Identity) -> Verdict:
    """Decide an identity in S7_0, which is S7 with a zero adjoined, as the
    lift of holds_s7: per component u ≈ u+q, a nonempty content cover D,
    then c(D) = c(q) and no member of delta(D) that q meets in other than
    one letter occurrence."""
    return holds_s0_lift(holds_s7, ident)


_SYNTACTIC = {"S7": holds_s7, "S7_0": holds_s7_0, "D2": holds_d2, "trivial": _holds_trivial}


def syntactic_decider(name: str) -> Callable[[Identity], Verdict]:
    """The syntactic decider for a builtin semiring name."""
    if name not in _SYNTACTIC:
        raise ValueError(
            f"no syntactic decider is defined for semiring {name!r}; "
            f"the builtin names {', '.join(_SYNTACTIC)} have one"
        )
    return _SYNTACTIC[name]


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


class CrossValReport(Record):
    """Agreement report between a syntactic decider and the oracle."""

    __slots__ = ("semiring", "samples", "seed", "bounds", "disagreements")

    def __init__(
        self,
        semiring: str,
        samples: int,
        seed: int,
        bounds: dict,
        disagreements: list[dict] | None = None,
    ):
        set_field(self, "semiring", semiring)
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)
        set_field(self, "bounds", bounds)
        set_field(self, "disagreements", [] if disagreements is None else disagreements)

    @property
    def ok(self) -> bool:
        return not self.disagreements


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
) -> CrossValReport:
    """Generate seeded random identities and compare decider vs oracle.

    Any disagreement is recorded with the full identity; none is expected.
    A commutative run draws from its own stream of the seed, so that it does
    not re-test the letter-sorted copies of the plain run's identities.
    samples below 0 or a bound below 1 raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    for name, value in (("max_vars", max_vars), ("max_words", max_words), ("max_word_len", max_word_len)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    # a str seed maps to the same stream in every process
    rng = random.Random(f"commutative:{seed}" if commutative else seed)
    disagreements = []
    for _ in range(samples):
        ident = random_identity(rng, max_vars, max_words, max_word_len, commutative)
        syn = syntactic(ident)
        oracle = holds_bruteforce(s, ident)
        if syn.holds != oracle.holds:
            disagreements.append(
                {
                    "identity": str(ident),
                    "syntactic": syn.holds,
                    "oracle": oracle.holds,
                    "oracle_witness": oracle.witness,
                }
            )
    bounds = {
        "max_vars": max_vars,
        "max_words": max_words,
        "max_word_len": max_word_len,
        "commutative": commutative,
    }
    return CrossValReport(label or repr(s), samples, seed, bounds, disagreements)
