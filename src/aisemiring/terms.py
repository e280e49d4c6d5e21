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
from typing import Iterable, Mapping

from .algebra import FiniteSemiring
from .errors import SizeLimitError
from .records import Record, set_field

Word = tuple[str, ...]

# steps of one delta_sets search (_exact_covers): the largest witness,
# n = 4999, stops at the parity conflict of its odd cycle within its 9,999
# words, long before the cap; 17 disjoint edges count 131,089 steps and list
# 2^17 delta sets; 20 count 1,048,596 and raise before listing any
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
    __slots__ = ("words", "commutative", "_word_set", "_delta_sets")

    def __init__(self, words: Iterable[Word], commutative: bool = False):
        normalized = {tuple(sorted(w)) for w in words} if commutative else set(map(tuple, words))
        if () in normalized:
            raise ValueError("words must be nonempty")
        if not normalized:
            raise ValueError("a term must contain at least one word")
        # sorted by letters, then stably by length: the word_key order
        ordered = sorted(normalized)
        ordered.sort(key=len)
        set_field(self, "words", tuple(ordered))
        set_field(self, "commutative", commutative)

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


def format_delta(members: list[list[str]]) -> str:
    """Render delta set members, each given as its sorted letters, in the
    given order, as {a,b}; {c}; an empty list as (empty)."""
    if not members:
        return "(empty)"
    return "; ".join("{" + ",".join(z) + "}" for z in members)


def _exact_covers(u: Term) -> frozenset[frozenset[str]]:
    """The delta family of u, by parity classes.

    A member Z meets each word in exactly one letter occurrence, so a
    letter occurring twice in some word is in no Z, and each word asks
    that exactly one of its other letters, its candidates, be in Z. A word
    with no candidate leaves the family empty, and a word with one puts
    that letter in every member. A word with two says that exactly one of
    them is in Z, a parity constraint: union-find with parity (Tarjan,
    "Efficiency of a good but not linear set union algorithm", JACM 1975;
    here the smaller class is relabelled) joins such letters into
    classes, each letter keeping its parity against its class's root, so
    a forced chain such as an odd cycle costs one pass. A two-letter word
    whose letters already share a class with equal parity, or two forced
    letters asking opposite values of one root, leave the family empty. Words of three or more candidates are then
    solved over the class roots, one word at a time: each partial
    assignment of the roots is extended in every way that puts exactly one
    of the word's letters in Z, the roots it leaves unset choosing which.
    Each surviving assignment gives one member per choice of the roots it
    leaves free. The search steps are the words read, the classes a longer
    word touches for each assignment it is checked against, the partial
    assignments kept and the members to list; past DELTA_WORK_CAP steps
    the search raises SizeLimitError, before it lists a family that would
    pass it.
    """
    words = u.words
    banned = {x for w in words if len(set(w)) < len(w) for x in w if w.count(x) > 1}
    root: dict[str, str] = {}  # letter -> the root of its class
    odd: dict[str, int] = {}  # letter -> 1 when it is in Z exactly when its root is not
    members: dict[str, list[str]] = {}  # root -> the letters of its class
    ones, longer = [], []
    for w in words:
        cand = [x for x in w if x not in banned] if banned else w
        for x in cand:
            if x not in root:
                root[x], odd[x], members[x] = x, 0, [x]
        n = len(cand)
        if n == 2:
            a, b = cand
            ra, rb, flip = root[a], root[b], odd[a] ^ odd[b] ^ 1
            if ra == rb:
                if flip:
                    return frozenset()
                continue
            if len(members[ra]) < len(members[rb]):
                ra, rb = rb, ra
            for x in members[rb]:
                root[x] = ra
                odd[x] ^= flip
            members[ra] += members.pop(rb)
        elif n == 1:
            ones.append(cand[0])
        elif n:
            longer.append(cand)
        else:
            return frozenset()
    forced: dict[str, int] = {}  # root -> 1 (in Z) or 0
    for x in ones:
        r, v = root[x], 1 ^ odd[x]
        if forced.setdefault(r, v) != v:
            return frozenset()
    work = len(words)
    found = [forced]  # the partial assignments of the roots that survive
    for cand in sorted(longer, key=len):
        # root -> how many of the word's letters are in Z when its value is 0, and when 1
        counts: dict[str, list[int]] = {}
        for x in cand:
            counts.setdefault(root[x], [0, 0])[1 ^ odd[x]] += 1
        kept = []
        for a in found:
            need = 1 - sum(c[a[r]] for r, c in counts.items() if r in a)
            unset = [(r, c) for r, c in counts.items() if r not in a]
            zero = {r: c.index(0) for r, c in unset if 0 in c}  # the value putting none in Z
            if need == 0:
                choices = [zero] if len(zero) == len(unset) else []
            elif need == 1:
                # one unset root puts one letter in Z, every other one none
                missing = [r for r, _ in unset if r not in zero]
                choices = [
                    {**zero, r: v}
                    for r, c in unset
                    if missing in ([], [r])
                    for v in (0, 1)
                    if c[v] == 1
                ]
            else:
                choices = []
            work += len(counts) + len(choices)
            if work > DELTA_WORK_CAP:
                raise SizeLimitError("DELTA_WORK_CAP", work, DELTA_WORK_CAP, "search steps")
            kept += [{**a, **z} for z in choices[1:]]
            if choices:  # no other word reads a, so the first choice extends it
                a.update(choices[0])
                kept.append(a)
        if not kept:
            return frozenset()
        found = kept
    # a partial assignment leaving f roots free gives 2^f members
    work += sum(1 << (len(members) - len(a)) for a in found)
    if work > DELTA_WORK_CAP:
        raise SizeLimitError("DELTA_WORK_CAP", work, DELTA_WORK_CAP, "search steps")
    sides = {r: ([], []) for r in members}  # root -> its letters by parity
    for x, r in root.items():
        sides[r][odd[x]].append(x)
    family = []
    for a in found:
        fixed = [x for r, v in a.items() for x in sides[r][1 ^ v]]
        free = [sides[r] for r in members if r not in a]
        for pick in itertools.product(*free):
            family.append(frozenset(itertools.chain(fixed, *pick)))
    return frozenset(family)


def filter_content_subset(u: Term, q: Word) -> frozenset[Word]:
    """Words of u whose content is contained in the content of q (may be empty)."""
    cq = frozenset(q)
    return frozenset(w for w in u.words if frozenset(w) <= cq)


Substitution = Mapping[str, Term]


def image_words(images: Mapping[str, Iterable[Word]], words: Iterable[Word]) -> set[Word]:
    """The words of a substituted sum: each letter of each word is replaced
    by its image's words, a word maps to the concatenations of one pick
    per letter, and the sum to the union over its words; a one-letter word
    maps to its letter's image words as they are. The words are not
    normalized: in commutative mode their letters keep product order."""
    out: set[Word] = set()
    for w in words:
        if len(w) == 1:
            out.update(images[w[0]])
        else:
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
