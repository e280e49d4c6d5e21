"""Equational derivations: one step rewrites a substituted axiom side
inside an optional multiplicative context plus an optional additive
remainder. Chains of steps are verified exactly. Search explores a
bounded candidate space breadth first, taking each step from a match of
a substituted axiom side against factorizations p·m·q of the current
term's words; it reports absence as exhausted or truncated, and names
the guards that truncated it. The search works on words: substituted
sides are built as words once per search and states are word sets, so
Term and DerivationStep objects are built only for the returned chain.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping

from .parsing import parse_identity, parse_term
from .records import Record, set_field
from .terms import Identity, Term, Word, content, image_words, substitute, word_key

FORWARD = "forward"
BACKWARD = "backward"

# Enumeration guards for search_derivation; hitting one marks the outcome
# truncated rather than exhausted.
SUBSTITUTION_CAP = 20_000
KEEP_SUBSET_LIMIT = 4
IMAGE_POOL_CAP = 5_000


class AxiomSet:
    """Named identities, unique names, one shared commutativity mode."""

    def __init__(self, axioms: Iterable[tuple[str, Identity]] = ()):
        items = tuple(axioms)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise ValueError("axiom names must be unique")
        modes = {ident.commutative for _, ident in items}
        if len(modes) > 1:
            raise ValueError("axioms must share one commutativity mode")
        self._items = items
        self._by_name = dict(items)

    def get(self, name: str) -> Identity:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown axiom name: {name}") from None

    @property
    def commutative(self) -> bool:
        return self._items[0][1].commutative if self._items else False

    def __iter__(self) -> Iterator[tuple[str, Identity]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class DerivationStep(Record):
    """One rewrite: the cited axiom side, substituted by phi, wrapped in
    the optional contexts, plus the optional remainder, must equal the
    current term; the result swaps in the other side."""

    __slots__ = ("axiom_name", "direction", "phi", "left_context", "right_context", "remainder")

    def __init__(
        self,
        axiom_name: str,
        direction: str,
        phi: Mapping[str, Term],
        left_context: Term | None = None,
        right_context: Term | None = None,
        remainder: Term | None = None,
    ):
        if direction not in (FORWARD, BACKWARD):
            raise ValueError(f"direction must be {FORWARD} or {BACKWARD}")
        set_field(self, "axiom_name", axiom_name)
        set_field(self, "direction", direction)
        set_field(self, "phi", phi)
        set_field(self, "left_context", left_context)
        set_field(self, "right_context", right_context)
        set_field(self, "remainder", remainder)


class StepMismatch(Record):
    """The step's reconstructed source did not match the current term."""

    __slots__ = ("expected", "found")

    def __init__(self, expected: Term, found: Term):
        set_field(self, "expected", expected)
        set_field(self, "found", found)

    def __str__(self):
        return f"step source is {self.expected}, term is {self.found}"


def _wrap(t: Term, step: DerivationStep) -> Term:
    if step.left_context is not None:
        t = step.left_context * t
    if step.right_context is not None:
        t = t * step.right_context
    return t


def apply_step(t: Term, step: DerivationStep, sigma: AxiomSet) -> Term | StepMismatch:
    """Apply one derivation step to t, or report the mismatch.

    Raises ValueError for an unknown axiom, an uncovered substitution
    domain, or mixed commutativity modes.
    """
    ident = sigma.get(step.axiom_name)
    if step.direction == FORWARD:
        src, dst = ident.lhs, ident.rhs
    else:
        src, dst = ident.rhs, ident.lhs

    parts: list[Term] = [ident.lhs, *step.phi.values()]
    for ctx in (step.left_context, step.right_context, step.remainder):
        if ctx is not None:
            parts.append(ctx)
    for part in parts:
        if part.commutative != t.commutative:
            raise ValueError("step ingredients must share the term's commutativity mode")

    needed = content(src) | content(dst)
    missing = sorted(needed - set(step.phi))
    if missing:
        raise ValueError(
            f"substitution does not cover axiom variables: {', '.join(missing)}"
        )

    expected = _wrap(substitute(step.phi, src), step)
    result = _wrap(substitute(step.phi, dst), step)
    if step.remainder is not None:
        expected = expected + step.remainder
        result = result + step.remainder
    if expected != t:
        return StepMismatch(expected=expected, found=t)
    return result


class DerivationChain(Record):
    __slots__ = ("start", "steps", "end")

    def __init__(self, start: Term, steps: tuple[DerivationStep, ...], end: Term):
        set_field(self, "start", start)
        set_field(self, "steps", steps)
        set_field(self, "end", end)


class ChainVerdict(Record):
    """failing_index counts steps; len(steps) marks the final comparison."""

    __slots__ = ("ok", "failing_index", "reason")

    def __init__(self, ok: bool, failing_index: int | None = None, reason: str | None = None):
        set_field(self, "ok", ok)
        set_field(self, "failing_index", failing_index)
        set_field(self, "reason", reason)


def verify_chain(chain: DerivationChain, sigma: AxiomSet) -> ChainVerdict:
    """Replay every step from chain.start and compare with chain.end."""
    t = chain.start
    for i, step in enumerate(chain.steps):
        out = apply_step(t, step, sigma)
        if isinstance(out, StepMismatch):
            return ChainVerdict(False, i, f"step {i}: {out}")
        t = out
    if t != chain.end:
        return ChainVerdict(
            False,
            len(chain.steps),
            f"derived term {t} differs from the declared end {chain.end}",
        )
    return ChainVerdict(True)


class SearchBounds(Record):
    """max_depth may be 0 (no step is taken); every other bound is at least 1."""

    __slots__ = ("max_depth", "max_words", "max_word_len", "max_image_words")

    def __init__(
        self,
        max_depth: int = 4,
        max_words: int = 8,
        max_word_len: int = 8,
        max_image_words: int = 1,
    ):
        if max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {max_depth}")
        for name, value in (
            ("max_words", max_words),
            ("max_word_len", max_word_len),
            ("max_image_words", max_image_words),
        ):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        set_field(self, "max_depth", max_depth)
        set_field(self, "max_words", max_words)
        set_field(self, "max_word_len", max_word_len)
        set_field(self, "max_image_words", max_image_words)


# The guards that can cut a search, in the order outcomes report them.
GUARDS = (
    "SUBSTITUTION_CAP",
    "KEEP_SUBSET_LIMIT",
    "IMAGE_POOL_CAP",
    "max_words",
    "max_word_len",
    "max_depth",
)


class SearchOutcome(Record):
    """status is "found", "absent-exhausted" (candidate space fully
    explored) or "absent-truncated" (some bound cut the enumeration).

    truncated_by maps each guard that fired to how often: a substitution
    list or the image pool cut, a match whose remainder subsets were not
    enumerated, a candidate result over max_words or max_word_len (plus
    one for a goal word longer than max_word_len, which cuts the pool),
    and for max_depth the terms left unexpanded. matched counts the
    (substitution, context pair) matches found inside explored terms.
    """

    __slots__ = ("status", "chain", "explored", "bounds", "truncated_by", "matched")

    def __init__(
        self,
        status: str,
        chain: DerivationChain | None,
        explored: int,
        bounds: SearchBounds,
        truncated_by: Mapping[str, int] | None = None,
        matched: int = 0,
    ):
        set_field(self, "status", status)
        set_field(self, "chain", chain)
        set_field(self, "explored", explored)
        set_field(self, "bounds", bounds)
        set_field(self, "truncated_by", {} if truncated_by is None else truncated_by)
        set_field(self, "matched", matched)

    @property
    def found(self) -> bool:
        return self.status == "found"


def _candidate_words(goal: Identity, bounds: SearchBounds) -> list:
    words = set()
    for side in (goal.lhs, goal.rhs):
        for w in side.words:
            for i in range(len(w)):
                top = min(i + bounds.max_word_len, len(w))
                for j in range(i + 1, top + 1):
                    words.add(w[i:j])
    return sorted(words, key=word_key)


def _memoized(source: Iterator) -> Callable[[], Iterator]:
    """Replays of source that share one cache: each replay reads the
    items drawn so far, then draws further items only when it needs them."""
    cache: list = []

    def replay():
        i = 0
        while True:
            if i == len(cache):
                item = next(source, None)
                if item is None:
                    return
                cache.append(item)
            yield cache[i]
            i += 1

    return replay


def _factor_index(
    words: Iterable[Word], commutative: bool, pool_index: Mapping[Word, int]
) -> dict[Word, set[tuple[int, int]]]:
    """Each word m to the context pairs (i, j) with p_i·m·q_j one of words.

    Index 0 is the absent context, k the k-th pool word. In commutative
    mode p and q are sub-multisets of the word and m the sorted remainder.
    """
    index: dict[Word, set[tuple[int, int]]] = {}
    if commutative:
        counts = [Counter()] + [Counter(w) for w in pool_index]
        for v in words:
            cv = Counter(v)
            fits = [0] + [k for k in range(1, len(counts)) if counts[k] <= cv]
            for i in fits:
                after_p = cv - counts[i]
                for j in fits:
                    if counts[j] <= after_p:
                        m = after_p - counts[j]
                        if m:
                            index.setdefault(tuple(sorted(m.elements())), set()).add((i, j))
        return index
    for v in words:
        n = len(v)
        for a in range(n):
            i = pool_index.get(v[:a]) if a else 0
            if i is None:
                continue
            for b in range(a + 1, n + 1):
                j = pool_index.get(v[b:]) if b < n else 0
                if j is not None:
                    index.setdefault(v[a:b], set()).add((i, j))
    return index


def search_derivation(
    sigma: AxiomSet, goal: Identity, bounds: SearchBounds = SearchBounds()
) -> SearchOutcome:
    """Breadth-first search for a chain from goal.lhs to goal.rhs.

    Substitution images are terms of at most max_image_words words drawn
    from the contiguous subwords of the goal's own words (the pool);
    contexts are absent or single pool words; remainders keep the
    unmatched words plus any subset of the matched ones. Neighbours come
    from matching, not from wrapping every image in every context: each
    explored term's words are indexed once by their factorizations p·m·q
    over the contexts, and a substituted axiom side with words w1…wk
    admits exactly the context pairs common to the index entries of
    w1…wk, visited in context order. The substituted sides are built as
    words once per search, on first use, and the states are word sets:
    Term and DerivationStep objects are built only for the steps of the
    returned chain, which re-verifies.
    """
    mode = goal.commutative
    if sigma.commutative != mode and len(sigma) > 0:
        raise ValueError("axioms and goal must share the commutativity mode")

    start, target = goal.lhs, goal.rhs
    if start == target:
        return SearchOutcome("found", DerivationChain(start, (), target), 0, bounds)

    fired: Counter = Counter()
    matched_count = 0
    if max(len(w) for side in (start, target) for w in side) > bounds.max_word_len:
        fired["max_word_len"] += 1
    pool_words = _candidate_words(goal, bounds)
    pool_index = {w: k for k, w in enumerate(pool_words, 1)}

    images: list[Term] = [Term.single(w, mode) for w in pool_words]
    # no combination is larger than the pool
    for size in range(2, min(bounds.max_image_words, len(pool_words)) + 1):
        for combo in itertools.combinations(pool_words, size):
            images.append(Term(combo, mode))
            if len(images) >= IMAGE_POOL_CAP:
                fired["IMAGE_POOL_CAP"] += 1
                break
        if len(images) >= IMAGE_POOL_CAP:
            break
    # contexts: none, then the single-word images in pool order
    contexts: list[Term | None] = [None] + images[: len(pool_words)]
    affixes: list[Word] = [()] + pool_words

    def substitutions(src: Term, dst: Term) -> Iterator[list]:
        """[phi, the words of phi(src) as a Term holds them, None] per
        substitution; neighbors puts the words of phi(dst) in the None
        slot when phi first matches."""
        variables = sorted(content(src) | content(dst))
        assignments = itertools.product(images, repeat=len(variables))
        if len(images) ** len(variables) > SUBSTITUTION_CAP:
            fired["SUBSTITUTION_CAP"] += 1
            assignments = itertools.islice(assignments, SUBSTITUTION_CAP)
        for picks in assignments:
            phi = dict(zip(variables, picks))
            words = image_words({x: img.words for x, img in phi.items()}, src.words)
            if mode:
                words = {tuple(sorted(w)) for w in words}
            yield [phi, tuple(sorted(words, key=word_key)), None]

    rules = [
        (name, direction, dst, _memoized(substitutions(src, dst)))
        for name, ident in sigma
        for direction, src, dst in (
            (FORWARD, ident.lhs, ident.rhs),
            (BACKWARD, ident.rhs, ident.lhs),
        )
    ]

    def neighbors(t_words: frozenset[Word]) -> Iterator[tuple[tuple, frozenset[Word]]]:
        """(name, direction, phi, p, q, remainder words) and the result's
        words of each step from t_words within the bounds, in the order of
        the axioms, directions, substitutions, context pairs and kept
        subsets."""
        nonlocal matched_count
        index = _factor_index(t_words, mode, pool_index)
        for name, direction, dst, replay in rules:
            for entry in replay():
                phi, src_words, dst_words = entry
                pairs = index.get(src_words[0])
                for w in src_words[1:]:
                    if not pairs:
                        break
                    pairs = pairs & index.get(w, set())
                if not pairs:
                    continue
                if dst_words is None:
                    dst_words = entry[2] = image_words(
                        {x: img.words for x, img in phi.items()}, dst.words
                    )
                for i, j in sorted(pairs):
                    matched_count += 1
                    before, after = affixes[i], affixes[j]
                    matched = [before + w + after for w in src_words]
                    base = [before + w + after for w in dst_words]
                    if mode:
                        matched = [tuple(sorted(w)) for w in matched]
                        base = [tuple(sorted(w)) for w in base]
                    rest = t_words.difference(matched)
                    if len(matched) > KEEP_SUBSET_LIMIT:
                        fired["KEEP_SUBSET_LIMIT"] += 1
                        keep_space = [()]
                    else:
                        ordered = sorted(matched, key=word_key)
                        keep_space = [
                            c
                            for size in range(len(matched) + 1)
                            for c in itertools.combinations(ordered, size)
                        ]
                    # Keeping a word that base adds anyway gives the state of
                    # the same subset without it, met earlier: that state was
                    # yielded, so it is skipped, or a guard cut it, which
                    # then counts again as it would for a new candidate.
                    shared = set(base).intersection(matched)
                    cut: dict[tuple, str] = {}
                    for keep in keep_space:
                        if shared and not shared.isdisjoint(keep):
                            if cut:
                                guard = cut.get(tuple(w for w in keep if w not in shared))
                                if guard is not None:
                                    fired[guard] += 1
                            continue
                        r_words = rest.union(keep)
                        words = r_words.union(base)
                        if len(words) > bounds.max_words:
                            guard = "max_words"
                        elif any(len(rw) > bounds.max_word_len for rw in words):
                            guard = "max_word_len"
                        else:
                            yield (name, direction, phi, contexts[i], contexts[j], r_words), words
                            continue
                        fired[guard] += 1
                        cut[keep] = guard

    def outcome(status: str, chain: DerivationChain | None) -> SearchOutcome:
        truncated_by = {g: fired[g] for g in GUARDS if fired[g]}
        return SearchOutcome(status, chain, explored, bounds, truncated_by, matched_count)

    def found_chain() -> DerivationChain:
        steps = []
        words = target_words
        while words in parents:
            words, (name, direction, phi, p, q, r_words) = parents[words]
            remainder = Term(r_words, mode) if r_words else None
            steps.append(DerivationStep(name, direction, phi, p, q, remainder))
        steps.reverse()
        chain = DerivationChain(start, tuple(steps), target)
        verdict = verify_chain(chain, sigma)
        if not verdict.ok:
            raise RuntimeError(f"search produced an unverifiable chain: {verdict.reason}")
        return chain

    # states are word sets; each reached one maps to its parent and the step
    start_words, target_words = start.word_set(), target.word_set()
    visited = {start_words}
    frontier = [start_words]
    parents: dict[frozenset[Word], tuple[frozenset[Word], tuple]] = {}
    explored = 0

    for _ in range(bounds.max_depth):
        next_frontier: list[frozenset[Word]] = []
        for t_words in frontier:
            explored += 1
            for move, words in neighbors(t_words):
                if words in visited:
                    continue
                visited.add(words)
                parents[words] = (t_words, move)
                if words == target_words:
                    return outcome("found", found_chain())
                next_frontier.append(words)
        frontier = next_frontier
        if not frontier:
            break

    if frontier:
        fired["max_depth"] += len(frontier)
    return outcome("absent-truncated" if fired else "absent-exhausted", None)


def axioms_to_json(sigma: AxiomSet) -> str:
    doc = {
        "commutative": sigma.commutative,
        "axioms": [
            {"name": name, "identity": str(ident)} for name, ident in sigma
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def axioms_from_json(text: str) -> AxiomSet:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("axioms"), list):
        raise ValueError('axioms document must be an object with an "axioms" list')
    commutative = bool(doc.get("commutative", False))
    axioms = []
    for entry in doc["axioms"]:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("identity"), str)
        ):
            raise ValueError('each axiom needs string "name" and "identity" fields')
        axioms.append((entry["name"], parse_identity(entry["identity"], commutative)))
    return AxiomSet(axioms)


def _term_or_none(value, commutative: bool) -> Term | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValueError("term fields must be strings or null")
    return parse_term(value, commutative)


def chain_to_dict(chain: DerivationChain) -> dict:
    """The chain's JSON document: the layout `derive search --json` prints
    under "chain" and chain_from_json reads."""

    def term_str(t: Term | None):
        return None if t is None else str(t)

    return {
        "commutative": chain.start.commutative,
        "start": str(chain.start),
        "steps": [
            {
                "axiom": s.axiom_name,
                "direction": s.direction,
                "phi": {x: str(s.phi[x]) for x in sorted(s.phi)},
                "left_context": term_str(s.left_context),
                "right_context": term_str(s.right_context),
                "remainder": term_str(s.remainder),
            }
            for s in chain.steps
        ],
        "end": str(chain.end),
    }


def chain_from_json(text: str) -> DerivationChain:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("chain document must be an object")
    for key in ("start", "end"):
        if not isinstance(doc.get(key), str):
            raise ValueError(f'chain document needs a string "{key}" field')
    if not isinstance(doc.get("steps"), list):
        raise ValueError('chain document needs a "steps" list')
    commutative = bool(doc.get("commutative", False))
    steps = []
    for entry in doc["steps"]:
        if not isinstance(entry, dict):
            raise ValueError("each step must be an object")
        if not isinstance(entry.get("axiom"), str):
            raise ValueError('each step needs a string "axiom" field')
        phi_doc = entry.get("phi")
        if not isinstance(phi_doc, dict):
            raise ValueError('each step needs a "phi" object')
        phi = {
            x: parse_term(img, commutative) if isinstance(img, str) else None
            for x, img in phi_doc.items()
        }
        if any(v is None for v in phi.values()):
            raise ValueError("phi images must be term strings")
        steps.append(
            DerivationStep(
                axiom_name=entry["axiom"],
                direction=entry.get("direction", FORWARD),
                phi=phi,
                left_context=_term_or_none(entry.get("left_context"), commutative),
                right_context=_term_or_none(entry.get("right_context"), commutative),
                remainder=_term_or_none(entry.get("remainder"), commutative),
            )
        )
    return DerivationChain(
        start=parse_term(doc["start"], commutative),
        steps=tuple(steps),
        end=parse_term(doc["end"], commutative),
    )
