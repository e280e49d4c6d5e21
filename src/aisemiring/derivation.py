"""Equational derivations: one step rewrites a substituted axiom side
inside an optional multiplicative context plus an optional additive
remainder. Chains of steps are verified exactly.

search_derivation is a breadth-first loop over states that are word
sets. Its step relation is one object, _StepSpace, built from the axioms,
the goal and the bounds: the pool of the goal's subwords, the images and
contexts drawn from it, each axiom's substitution list (read in both
directions, and built as word sets only as far as a scan or a step reads
it), and the counts of the guards that cut the space and of the matches
found. Absence is reported as exhausted or truncated, naming those
guards; Term and DerivationStep objects are built only for the returned
chain.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Mapping

from .algebra import _json_text, json_document
from .errors import SizeLimitError
from .parsing import parse_identity, parse_term
from .records import Record, set_field
from .terms import Identity, Term, Word, content, image_words, substitute, word_key

FORWARD = "forward"
BACKWARD = "backward"

# Enumeration guards for search_derivation; hitting one marks the outcome
# truncated rather than exhausted.
SUBSTITUTION_CAP = 20_000
KEEP_SUBSET_LIMIT = 4
# words one step of a chain may build by substitution and wrapping, over
# both axiom sides: substituting 100,000 words takes about 0.17 s
STEP_WORD_CAP = 100_000
# words a whole chain may build, the steps' counts summed before the
# first step is replayed: about a second of substitution
CHAIN_WORD_CAP = 400_000


class AxiomSet(Record):
    """Named identities, unique names, one shared commutativity mode: the
    one given, else the items', else False (an empty set keeps a given
    mode)."""

    # the fields are axioms, the (name, identity) pairs in order, and
    # commutative; _by_name maps each name to its identity
    __slots__ = ("axioms", "commutative", "_by_name")

    def __init__(
        self, axioms: Iterable[tuple[str, Identity]] = (), commutative: bool | None = None
    ):
        items = tuple(axioms)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise ValueError("axiom names must be unique")
        modes = {ident.commutative for _, ident in items}
        if commutative is not None:
            modes.add(commutative)
        if len(modes) > 1:
            raise ValueError("axioms must share one commutativity mode")
        set_field(self, "axioms", items)
        set_field(self, "commutative", modes.pop() if modes else False)
        set_field(self, "_by_name", dict(items))

    def get(self, name: str) -> Identity:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown axiom name: {name}") from None

    def __iter__(self) -> Iterator[tuple[str, Identity]]:
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)


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

    def __str__(self):
        return f"step source is {self.expected}, term is {self.found}"


def _wrap(t: Term, step: DerivationStep) -> Term:
    if step.left_context is not None:
        t = step.left_context * t
    if step.right_context is not None:
        t = t * step.right_context
    return t


def _sides(step: DerivationStep, sigma: AxiomSet) -> tuple[Term, Term]:
    """The cited axiom's side the step matches, then the one it puts in."""
    ident = sigma.get(step.axiom_name)
    return (ident.lhs, ident.rhs) if step.direction == FORWARD else (ident.rhs, ident.lhs)


def _words_to_build(step: DerivationStep, src: Term, dst: Term) -> int:
    """Words that substituting both axiom sides by step.phi and wrapping
    them in the step's contexts builds, whatever the current term; counting
    stops past STEP_WORD_CAP, so that no product grows too large to print.

    Raises ValueError when phi does not cover the axiom's variables.
    """
    needed = content(src) | content(dst)
    missing = sorted(needed - set(step.phi))
    if missing:
        raise ValueError(
            f"substitution does not cover axiom variables: {', '.join(missing)}"
        )
    # a word of a side builds the product of its letters' image sizes, times
    # the sizes of the contexts
    wrap = math.prod(len(c) for c in (step.left_context, step.right_context) if c is not None)
    built = 0
    for w in itertools.chain(src.words, dst.words):
        n = wrap
        for x in w:
            n *= len(step.phi[x])
            if n > STEP_WORD_CAP:
                break
        built += n
        if built > STEP_WORD_CAP:
            break
    return built


def apply_step(t: Term, step: DerivationStep, sigma: AxiomSet) -> Term | StepMismatch:
    """Apply one derivation step to t, or report the mismatch.

    Raises ValueError for an unknown axiom, an uncovered substitution
    domain, or mixed commutativity modes, and SizeLimitError for a step
    that would build more than STEP_WORD_CAP words.
    """
    src, dst = _sides(step, sigma)
    given = [c for c in (step.left_context, step.right_context, step.remainder) if c is not None]
    if any(p.commutative != t.commutative for p in (src, *step.phi.values(), *given)):
        raise ValueError("step ingredients must share the term's commutativity mode")

    built = _words_to_build(step, src, dst)
    if built > STEP_WORD_CAP:
        raise SizeLimitError("STEP_WORD_CAP", built, STEP_WORD_CAP, "words or more to build")

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


class ChainVerdict(Record):
    """failing_index counts steps; len(steps) marks the final comparison."""

    __slots__ = ("ok", "failing_index", "reason")

    def __init__(self, ok: bool, failing_index: int | None = None, reason: str | None = None):
        set_field(self, "ok", ok)
        set_field(self, "failing_index", failing_index)
        set_field(self, "reason", reason)


def verify_chain(chain: DerivationChain, sigma: AxiomSet) -> ChainVerdict:
    """Replay every step from chain.start and compare with chain.end.

    Raises SizeLimitError, before any step is replayed, for a chain whose
    steps would build more than CHAIN_WORD_CAP words in all. The sum stops
    at the first step whose axiom, substitution or size apply_step refuses,
    as the replay stops there at the latest.
    """
    built = 0
    for step in chain.steps:
        try:
            n = _words_to_build(step, *_sides(step, sigma))
        except ValueError:
            break
        if n > STEP_WORD_CAP:
            break
        built += n
        if built > CHAIN_WORD_CAP:
            raise SizeLimitError("CHAIN_WORD_CAP", built, CHAIN_WORD_CAP, "words or more to build")
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
    "max_words",
    "max_word_len",
    "max_depth",
)


class SearchOutcome(Record):
    """status is "found", "absent-exhausted" (candidate space fully
    explored) or "absent-truncated" (some bound cut the enumeration).

    truncated_by maps each guard that fired to how often: an axiom's
    substitution list cut (2, once per direction, even when the goal is
    found among its forward steps), a match that is not expanding and
    whose remainder subsets were not enumerated, a candidate result over
    max_words or max_word_len (plus one for a goal word longer than
    max_word_len, which cuts the pool), and for max_depth the terms left
    unexpanded; an expanding step (see _StepSpace.neighbors) over a bound
    counts once per keep subset. matched counts the (substitution,
    context pair) matches found inside explored terms.
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


# what _factor_index gives a word that is no middle of a state's words
_NO_PAIRS: frozenset = frozenset()


def _image(phi: Mapping[str, tuple], words: Iterable[Word], mode: bool) -> frozenset[Word]:
    """The words of phi(side), in commutative mode with sorted letters."""
    out = image_words(phi, words)
    return frozenset(tuple(sorted(w)) for w in out) if mode else frozenset(out)


class _Substitutions:
    """One axiom's substitution list, in product order over the images.

    An entry is [phi, the words of phi(lhs), the words of phi(rhs)], the
    sides as unsorted word sets. The list grows only as far as a scan has
    read it, and an entry's phi(rhs) is None until a forward step reads
    it or complete() is called."""

    __slots__ = ("lhs", "rhs", "mode", "variables", "entries", "pending", "whole")

    def __init__(self, ident: Identity, variables: list[str], assignments: Iterator, mode: bool):
        self.lhs, self.rhs, self.mode = ident.lhs.words, ident.rhs.words, mode
        self.variables = variables
        self.entries: list[list] = []
        # the product iterator, None once every entry is built
        self.pending: Iterator | None = assignments
        # whether every entry has its phi(rhs)
        self.whole = False

    def scan(self) -> Iterable[list]:
        """The entries in order: the list itself once it is complete, else
        a generator that builds each entry the first time it is read."""
        return self.entries if self.pending is None else self._grow()

    def _grow(self) -> Iterator[list]:
        entries, pending, k = self.entries, self.pending, 0
        while True:
            if k == len(entries):
                picks = next(pending, None)
                if picks is None:
                    self.pending = None
                    return
                phi = dict(zip(self.variables, picks))
                entries.append([phi, _image(phi, self.lhs, self.mode), None])
            yield entries[k]
            k += 1

    def right_image(self, entry: list) -> frozenset[Word]:
        """The entry's phi(rhs) words, built the first time they are read."""
        if entry[2] is None:
            entry[2] = _image(entry[0], self.rhs, self.mode)
        return entry[2]

    def complete(self) -> list[list]:
        """Every entry, each with its phi(rhs): the list backward scans read."""
        if not self.whole:
            for entry in self.scan():
                self.right_image(entry)
            self.whole = True
        return self.entries


class _StepSpace:
    """The step relation of one search, built from (sigma, goal, bounds).

    The pool is the goal's contiguous subwords of at most max_word_len
    letters; images are the first SUBSTITUTION_CAP + 1 combinations of
    at most max_image_words pool words, and contexts are absent or one
    pool word. Each axiom has one substitution list (_Substitutions), made
    when neighbors first reaches the axiom and read in both directions.
    It grows in product order only as far as a forward scan reads it, so a
    search that finds its goal partway through the first scan builds no
    later entry; an entry's phi(rhs) is built when a forward step reads
    it, or for every entry just before the first backward scan. A step
    matches a substituted side against the factorizations p·m·q of a
    state's words, and its remainder keeps the unmatched words plus any
    subset of the matched ones. fired counts the guards that cut the space
    and matched the (substitution, context pair) matches.
    """

    def __init__(self, sigma: AxiomSet, goal: Identity, bounds: SearchBounds):
        self.sigma, self.bounds, self.mode = sigma, bounds, goal.commutative
        self.fired: Counter = Counter()
        self.matched = 0
        if max(len(w) for side in (goal.lhs, goal.rhs) for w in side) > bounds.max_word_len:
            self.fired["max_word_len"] += 1
        pool = _candidate_words(goal, bounds)
        self.pool_index = {w: k for k, w in enumerate(pool, 1)}
        # an image is the tuple of its words, in Term order: pool words are
        # distinct and in word_key order, and so is each combination of them;
        # none is larger than the pool
        sizes = range(1, min(bounds.max_image_words, len(pool)) + 1)
        combos = itertools.chain.from_iterable(itertools.combinations(pool, k) for k in sizes)
        # a substitution list cut at SUBSTITUTION_CAP reads no image past
        # the first SUBSTITUTION_CAP, and one more tells _substitutions that
        # the whole pool is longer
        self.images = list(itertools.islice(combos, SUBSTITUTION_CAP + 1))
        # contexts: none, then the pool words in pool order
        self.affixes: list[Word] = [()] + pool
        self.tables: dict[str, _Substitutions] = {}

    def _substitutions(self, ident: Identity) -> _Substitutions:
        variables = sorted(content(ident.lhs) | content(ident.rhs))
        assignments = itertools.product(self.images, repeat=len(variables))
        if len(self.images) ** len(variables) > SUBSTITUTION_CAP:
            # counted per direction: both read the cut list
            self.fired["SUBSTITUTION_CAP"] += 2
            assignments = itertools.islice(assignments, SUBSTITUTION_CAP)
        return _Substitutions(ident, variables, assignments, self.mode)

    def neighbors(self, t_words: frozenset[Word]) -> Iterator[tuple[tuple, frozenset[Word]]]:
        """(name, direction, phi, i, j, remainder words) and the result's
        words of each step from t_words within the bounds, in the order of
        the axioms, directions, substitutions, context pairs and kept
        subsets; i and j index affixes. An expanding step, whose matched
        words all lie in its base (every forward step of x == x + x*x),
        gives one state whatever it keeps: it yields one successor, with
        the unmatched words as remainder, however many words it matched,
        and a rejection counts once per keep subset; KEEP_SUBSET_LIMIT
        counts only the other steps. Substituted sides are built by
        image_words, which takes a one-letter word's image words as they
        are, only when a scan or a step reads them."""
        mode, affixes, fired, tables = self.mode, self.affixes, self.fired, self.tables
        max_words, max_word_len = self.bounds.max_words, self.bounds.max_word_len
        index = _factor_index(t_words, mode, self.pool_index)
        for name, ident in self.sigma:
            subs = tables.get(name)
            if subs is None:
                subs = tables[name] = self._substitutions(ident)
            for direction, src_at, dst_at in ((FORWARD, 1, 2), (BACKWARD, 2, 1)):
                entries = subs.scan() if direction == FORWARD else subs.complete()
                for entry in entries:
                    src_words = entry[src_at]
                    pairs = None
                    for w in src_words:
                        found = index.get(w, _NO_PAIRS)
                        pairs = found if pairs is None else pairs & found
                        if not pairs:
                            break
                    if not pairs:
                        continue
                    phi, dst_words = entry[0], entry[dst_at]
                    if dst_words is None:  # a forward step reads phi(rhs) first
                        dst_words = subs.right_image(entry)
                    # wrapping in contexts is injective on words, so the
                    # matched words lie in the base iff src_words lie in dst_words
                    expanding = src_words <= dst_words
                    for i, j in sorted(pairs):
                        self.matched += 1
                        before, after = affixes[i], affixes[j]
                        matched = [before + w + after for w in src_words]
                        base = [before + w + after for w in dst_words]
                        if mode:
                            matched = [tuple(sorted(w)) for w in matched]
                            base = [tuple(sorted(w)) for w in base]
                        rest = t_words.difference(matched)
                        # a rejected state counts once per keep subset giving it
                        weight = 1
                        if expanding:
                            # every keep subset gives the state rest | base
                            keep_space = [()]
                            weight = 1 << len(matched)
                        elif len(matched) > KEEP_SUBSET_LIMIT:
                            fired["KEEP_SUBSET_LIMIT"] += 1
                            keep_space = [()]
                        else:
                            ordered = sorted(matched, key=word_key)
                            keep_space = [
                                c
                                for size in range(len(matched) + 1)
                                for c in itertools.combinations(ordered, size)
                            ]
                        for keep in keep_space:
                            r_words = rest.union(keep)
                            words = r_words.union(base)
                            if len(words) > max_words:
                                fired["max_words"] += weight
                            elif max(map(len, words)) > max_word_len:
                                fired["max_word_len"] += weight
                            else:
                                yield (name, direction, phi, i, j, r_words), words

    def step(self, move: tuple) -> DerivationStep:
        """The DerivationStep of a move that neighbors yielded."""
        name, direction, phi, i, j, r_words = move
        mode = self.mode
        step_phi = {x: Term(img, mode) for x, img in phi.items()}
        p, q = (Term.single(self.affixes[k], mode) if k else None for k in (i, j))
        remainder = Term(r_words, mode) if r_words else None
        return DerivationStep(name, direction, step_phi, p, q, remainder)

    def outcome(self, status: str, chain: DerivationChain | None, explored: int) -> SearchOutcome:
        truncated_by = {g: self.fired[g] for g in GUARDS if self.fired[g]}
        return SearchOutcome(status, chain, explored, self.bounds, truncated_by, self.matched)


def search_derivation(
    sigma: AxiomSet, goal: Identity, bounds: SearchBounds = SearchBounds()
) -> SearchOutcome:
    """Breadth-first search for a chain from goal.lhs to goal.rhs. The
    states are word sets and the steps from each are _StepSpace.neighbors;
    Term and DerivationStep objects are built only for the steps of the
    returned chain, which re-verifies."""
    if sigma.commutative != goal.commutative and len(sigma) > 0:
        raise ValueError("axioms and goal must share the commutativity mode")

    start, target = goal.lhs, goal.rhs
    if start == target:
        return SearchOutcome("found", DerivationChain(start, (), target), 0, bounds)

    space = _StepSpace(sigma, goal, bounds)
    # each reached state maps to its parent and the move from it, the start to None
    start_words, target_words = start.word_set(), target.word_set()
    frontier = [start_words]
    parents: dict[frozenset[Word], tuple[frozenset[Word], tuple] | None] = {start_words: None}
    explored = 0

    for _ in range(bounds.max_depth):
        next_frontier: list[frozenset[Word]] = []
        for t_words in frontier:
            explored += 1
            for move, words in space.neighbors(t_words):
                if words in parents:
                    continue
                parents[words] = (t_words, move)
                if words == target_words:
                    steps = []
                    while (link := parents[words]) is not None:
                        words, move = link
                        steps.append(space.step(move))
                    chain = DerivationChain(start, tuple(reversed(steps)), target)
                    verdict = verify_chain(chain, sigma)
                    if not verdict.ok:
                        raise RuntimeError(f"search produced an unverifiable chain: {verdict.reason}")
                    return space.outcome("found", chain, explored)
                next_frontier.append(words)
        frontier = next_frontier
        if not frontier:
            break

    if frontier:
        space.fired["max_depth"] += len(frontier)
    return space.outcome("absent-truncated" if space.fired else "absent-exhausted", None, explored)


def axioms_to_json(sigma: AxiomSet) -> str:
    doc = {
        "commutative": sigma.commutative,
        "axioms": [
            {"name": name, "identity": str(ident)} for name, ident in sigma
        ],
    }
    return _json_text(doc) + "\n"


def _commutative(doc: dict) -> bool:
    """A document's "commutative" flag: a JSON boolean, false when absent."""
    value = doc.get("commutative", False)
    if not isinstance(value, bool):
        raise ValueError(f'"commutative" must be true or false, not {value!r}')
    return value


def axioms_from_json(text: str) -> AxiomSet:
    doc = json_document(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("axioms"), list):
        raise ValueError('axioms document must be an object with an "axioms" list')
    commutative = _commutative(doc)
    axioms = []
    for entry in doc["axioms"]:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("identity"), str)
        ):
            raise ValueError('each axiom needs string "name" and "identity" fields')
        axioms.append((entry["name"], parse_identity(entry["identity"], commutative)))
    return AxiomSet(axioms, commutative)


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
    doc = json_document(text)
    if not isinstance(doc, dict):
        raise ValueError("chain document must be an object")
    for key in ("start", "end"):
        if not isinstance(doc.get(key), str):
            raise ValueError(f'chain document needs a string "{key}" field')
    if not isinstance(doc.get("steps"), list):
        raise ValueError('chain document needs a "steps" list')
    commutative = _commutative(doc)
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
