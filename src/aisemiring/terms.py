"""Words, terms, identities and their statistics.

A word is a nonempty tuple of variable names (an element of the free
semigroup on the variable set); a term is a nonempty finite set of words.
Together with union as addition and elementwise concatenation as
multiplication, terms form the free additively idempotent semiring, which
is why identity checking below never needs explicit commutativity or
idempotency axioms for +.

A term fixes a commutativity convention at construction: in commutative
mode each word's letters are normalized to sorted order, so two words are
equal exactly when their letter multisets are.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Mapping

from .algebra import FiniteSemiring
from .errors import SizeLimitError
from .records import Record, set_field

Word = tuple[str, ...]

# word visits of one delta_sets search: the largest witness, n = 4999, needs
# 59,992 for u; 20 disjoint edges, with 2^20 delta sets, reach it after 41,662
DELTA_WORK_CAP = 250_000


def word_key(w: Word):
    """Canonical word sort key: length first, then letters."""
    return (len(w), w)


def format_word(w: Word) -> str:
    """Render a word in the surface grammar, compressing letter runs to powers."""
    if len(set(w)) == len(w):  # no letter repeats, so every run has length 1
        return "*".join(w)
    parts = []
    for letter, run in itertools.groupby(w):
        k = len(list(run))
        parts.append(letter if k == 1 else f"{letter}^{k}")
    return "*".join(parts)


class Term(Record):
    """A nonempty finite set of nonempty words, with a fixed commutativity mode."""

    # the fields are words and commutative; _word_set and _delta_sets are
    # filled on first use, so terms that never need them skip them
    __slots__ = ("words", "commutative", "_hash", "_word_set", "_delta_sets")

    def __init__(self, words: Iterable[Word], commutative: bool = False):
        normalized = set()
        for w in words:
            w = tuple(w)
            if not w:
                raise ValueError("words must be nonempty")
            if commutative:
                w = tuple(sorted(w))
            normalized.add(w)
        if not normalized:
            raise ValueError("a term must contain at least one word")
        set_field(self, "words", tuple(sorted(normalized, key=word_key)))
        set_field(self, "commutative", commutative)
        set_field(self, "_hash", hash((self.words, commutative)))

    @classmethod
    def single(cls, w: Word, commutative: bool = False) -> "Term":
        return cls([w], commutative)

    def word_set(self) -> frozenset[Word]:
        try:
            return self._word_set
        except AttributeError:
            ws = frozenset(self.words)
            set_field(self, "_word_set", ws)
            return ws

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.commutative == other.commutative
            and self.words == other.words
        )

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, w: Word):
        if self.commutative:
            w = tuple(sorted(w))
        return w in self.word_set()

    def __add__(self, other: "Term") -> "Term":
        """Semiring addition: set union."""
        if self.commutative != other.commutative:
            raise ValueError("cannot combine terms with different commutativity modes")
        return Term(self.words + other.words, self.commutative)

    def __mul__(self, other: "Term") -> "Term":
        """Semiring multiplication: all pairwise concatenations."""
        if self.commutative != other.commutative:
            raise ValueError("cannot combine terms with different commutativity modes")
        return Term(
            (u + v for u in self.words for v in other.words), self.commutative
        )

    def add_word(self, w: Word) -> "Term":
        return Term(self.words + (w,), self.commutative)

    def __str__(self):
        return " + ".join(format_word(w) for w in self.words)

    def __repr__(self):
        mode = ", commutative=True" if self.commutative else ""
        return f"Term({str(self)!r}{mode})"


class Identity(Record):
    """A pair of terms read as lhs ≈ rhs."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        if lhs.commutative != rhs.commutative:
            raise ValueError("both sides of an identity must share the commutativity mode")
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    @property
    def commutative(self) -> bool:
        return self.lhs.commutative

    def is_trivial(self) -> bool:
        """Trivial identities have equal sides as word sets."""
        return self.lhs == self.rhs

    def __str__(self):
        return f"{self.lhs} == {self.rhs}"


def content(t: Term | Word) -> frozenset[str]:
    """The set of variables occurring in a word or term."""
    if isinstance(t, Term):
        return frozenset(x for w in t.words for x in w)
    return frozenset(t)


def is_linear(w: Word) -> bool:
    """True iff every variable of w occurs exactly once."""
    return len(set(w)) == len(w)


def delta_sets(u: Term) -> frozenset[frozenset[str]]:
    """Variable sets meeting every word of u in exactly one once-occurring letter.

    The family is kept on u, so each term is searched once (_exact_covers).
    """
    try:
        return u._delta_sets
    except AttributeError:
        family = _exact_covers(u)
        set_field(u, "_delta_sets", family)
        return family


def delta_key(z: frozenset[str]) -> tuple:
    """The order of delta set members in every report: size, then letters."""
    return (len(z), sorted(z))


def format_delta(members) -> str:
    """Render delta set members, in the given order, as {a,b}; {c}; an
    empty list as (empty)."""
    if not members:
        return "(empty)"
    return "; ".join("{" + ",".join(sorted(z)) + "}" for z in members)


def _exact_covers(u: Term) -> frozenset[frozenset[str]]:
    """The delta family of u, by search.

    A member Z is an exact cover of the words of u by letters, a letter
    covering the words it occurs in; a letter occurring twice in some word
    is in no Z. An iterative Algorithm X (Knuth, "Dancing Links") branches
    on the open word with the fewest letters left. Choosing a letter covers
    its words and bans the other letters of those words, updating the
    letter counts of the words they occur in, so a forced chain such as an
    odd cycle costs linear work. Each word covered or recounted is one
    word visit; past DELTA_WORK_CAP visits the search raises SizeLimitError.
    """
    words = u.words
    where: dict[str, list[int]] = {}  # letter -> the words it occurs in, once each
    banned = set()
    for i, w in enumerate(words):
        counts = dict.fromkeys(w, 1) if is_linear(w) else Counter(w)
        for x, k in counts.items():
            if k > 1:
                banned.add(x)
            else:
                where.setdefault(x, []).append(i)
    for x in banned:
        where.pop(x, None)
    available = set(where)
    left = [sum(x in available for x in w) for w in words]  # letters still available
    by_left = [set() for _ in range(max(left) + 1)]  # open words by letters left
    for i, c in enumerate(left):
        by_left[c].add(i)
    covered = [False] * len(words)
    open_words = len(words)
    work = 0

    def choose(x: str) -> list[str]:
        nonlocal open_words, work
        for i in where[x]:
            by_left[left[i]].remove(i)
            covered[i] = True
        open_words -= len(where[x])
        work += len(where[x])
        gone = []
        for i in where[x]:
            for y in words[i]:
                if y in available:
                    available.remove(y)
                    gone.append(y)
                    for j in where[y]:
                        if not covered[j]:
                            by_left[left[j]].remove(j)
                            by_left[left[j] - 1].add(j)
                        left[j] -= 1
                    work += len(where[y])
        if work > DELTA_WORK_CAP:
            raise SizeLimitError("DELTA_WORK_CAP", work, DELTA_WORK_CAP, "word visits")
        return gone

    def undo(x: str, gone: list[str]) -> None:
        nonlocal open_words
        for y in reversed(gone):
            available.add(y)
            for j in where[y]:
                left[j] += 1
                if not covered[j]:
                    by_left[left[j] - 1].remove(j)
                    by_left[left[j]].add(j)
        for i in where[x]:
            covered[i] = False
            by_left[left[i]].add(i)
        open_words += len(where[x])

    found = []
    chosen: list[str] = []
    # one frame per branched word: its letters, the next one to try, and
    # the letters the current choice banned (None before the first choice)
    frames: list[list] = []
    while True:
        if not open_words:
            found.append(tuple(chosen))
        else:
            c = next(c for c, b in enumerate(by_left) if b)
            if c:
                i = next(iter(by_left[c]))
                frames.append([[y for y in words[i] if y in available], 0, None])
        # take the next untried letter, backing up over exhausted words
        while frames:
            frame = frames[-1]
            if frame[2] is not None:
                undo(chosen.pop(), frame[2])
                frame[2] = None
            if frame[1] == len(frame[0]):
                frames.pop()
                continue
            x = frame[0][frame[1]]
            frame[1] += 1
            chosen.append(x)
            frame[2] = choose(x)
            break
        else:
            return frozenset(map(frozenset, found))


def filter_content_subset(u: Term, q: Word) -> frozenset[Word]:
    """Words of u whose content is contained in the content of q (may be empty)."""
    cq = frozenset(q)
    return frozenset(w for w in u.words if frozenset(w) <= cq)


Substitution = Mapping[str, Term]


def image_words(images: Mapping[str, Iterable[Word]], words: Iterable[Word]) -> set[Word]:
    """The words of a substituted sum: each letter of each word is replaced
    by its image's words, a word maps to the concatenations of one pick
    per letter, and the sum to the union over its words. The words are
    not normalized: in commutative mode their letters keep product order."""
    out: set[Word] = set()
    for w in words:
        for pick in itertools.product(*[images[x] for x in w]):
            out.add(tuple(itertools.chain.from_iterable(pick)))
    return out


def substitute(phi: Substitution, t: Term) -> Term:
    """Homomorphic image of t: each letter is replaced by its image term,
    a word maps to the set product of its letters' images, and the term
    to the union over its words."""
    missing = sorted(content(t) - set(phi))
    if missing:
        raise ValueError(f"substitution does not cover variables: {', '.join(missing)}")
    return Term(image_words({x: img.words for x, img in phi.items()}, t.words), t.commutative)


Assignment = Mapping[str, str]


def evaluate(t: Term, s: FiniteSemiring, asg: Assignment) -> str:
    """Evaluate a term in a finite semiring under a variable assignment.

    Words multiply left to right, the term folds addition over its words.
    Returns the element name.
    """
    missing = sorted(content(t) - set(asg))
    if missing:
        raise ValueError(f"assignment does not cover variables: {', '.join(missing)}")
    values = {x: s.index_of(asg[x]) for x in content(t)}
    return s.elements[fold_words(t.words, s.add, s.mul, values)]


def fold_words(words, add, mul, values) -> int:
    """Evaluate a sum of words in Cayley tables by element index: values maps
    each letter (a name or a position) to an index, words multiply left to
    right and addition folds over the words. Returns the element index, -1
    if words is empty."""
    total = -1
    for w in words:
        e = values[w[0]]
        for x in w[1:]:
            e = mul[e][values[x]]
        total = e if total < 0 else add[total][e]
    return total


def components(ident: Identity) -> list[tuple[Term, Word]]:
    """Single-word-augmentation components of an identity.

    Yields (base, q) pairs so that ident holds exactly when every
    base ≈ base + q does: u ≈ u+v_j over the words of the rhs, then
    v ≈ v+u_i over the words of the lhs.
    """
    u, v = ident.lhs, ident.rhs
    return [(u, w) for w in v.words] + [(v, w) for w in u.words]
