"""Finite additively idempotent semirings as Cayley tables.

Carriers are tiny (a handful of elements), so every law is checked by
exhaustive scan and isomorphism is decided by permutation search.
Elements are referenced by index internally and by name at the interface;
tables are row-major with the row as the left operand.
"""

from __future__ import annotations

import functools
import itertools

from .errors import SizeLimitError
from .records import Record, set_field

ISO_CARRIER_CAP = 8


class FiniteSemiring(Record):
    """A finite semiring given by its element names and operation tables."""

    # the __dict__ holds the cached properties
    __slots__ = ("elements", "add", "mul", "__dict__")

    def __init__(
        self,
        elements: tuple[str, ...],
        add: tuple[tuple[int, ...], ...],
        mul: tuple[tuple[int, ...], ...],
    ):
        n = len(elements)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        if len(set(elements)) != n:
            raise ValueError("element names must be distinct")
        for label, table in (("add", add), ("mul", mul)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"{label} table is not {n}x{n}")
            for row in table:
                for cell in row:
                    if not isinstance(cell, int) or not 0 <= cell < n:
                        raise ValueError(f"{label} table cell {cell!r} is not a valid index")
        set_field(self, "elements", elements)
        set_field(self, "add", add)
        set_field(self, "mul", mul)

    @property
    def size(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def additive_top(self) -> int:
        """Index of the sum of all elements, which absorbs every element
        under + in an ai-semiring."""
        top = 0
        for e in range(self.size):
            top = self.add[top][e]
        return top

    @functools.cached_property
    def add_with_empty(self) -> tuple[tuple[int, ...], ...]:
        """The addition table with one more index, size, for the empty sum:
        its row and column give the other operand back, so a running sum
        can start from it."""
        n = self.size
        return tuple(row + (e,) for e, row in enumerate(self.add)) + (tuple(range(n + 1)),)

    @functools.cached_property
    def mul_commutes(self) -> bool:
        return self.mul == tuple(zip(*self.mul))

    def index_of(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise ValueError(f"unknown element {name!r}") from None

    def add_named(self, a: str, b: str) -> str:
        return self.elements[self.add[self.index_of(a)][self.index_of(b)]]

    def mul_named(self, a: str, b: str) -> str:
        return self.elements[self.mul[self.index_of(a)][self.index_of(b)]]

    def __repr__(self):
        return f"FiniteSemiring({list(self.elements)!r})"


class AxiomViolation(Record):
    """First violated ai-semiring axiom, with a witnessing element tuple."""

    __slots__ = ("law", "witness")

    def __init__(self, law: str, witness: tuple[str, ...]):
        set_field(self, "law", law)
        set_field(self, "witness", witness)

    def __str__(self):
        return f"{self.law} fails at ({', '.join(self.witness)})"


class Congruence(Record):
    """A partition of the carrier compatible with both operations."""

    __slots__ = ("partition",)

    def __init__(self, partition: tuple[tuple[int, ...], ...]):
        set_field(self, "partition", partition)

    def block_of(self, i: int) -> int:
        try:
            return _block_index(self.partition)[i]
        except KeyError:
            raise ValueError(f"index {i} not covered by partition") from None


class CongruenceViolation(Record):
    """Compatibility counterexample: a ~ a' and b ~ b' but op(a,b) !~ op(a',b')."""

    __slots__ = ("operation", "witness")

    def __init__(self, operation: str, witness: tuple[str, str, str, str]):
        set_field(self, "operation", operation)
        set_field(self, "witness", witness)

    def __str__(self):
        a, a2, b, b2 = self.witness
        return (
            f"{self.operation} incompatible: {a}~{a2} and {b}~{b2} "
            f"but results land in different blocks"
        )


def validate_ai_semiring(elements, add, mul) -> FiniteSemiring | AxiomViolation:
    """Check the ai-semiring axioms by full scan.

    Returns the validated algebra, or an AxiomViolation naming the first
    failed law in a fixed scan order. Malformed tables (wrong shape, bad
    indices) raise ValueError instead: structural errors are not axiom
    violations.
    """
    s = FiniteSemiring(tuple(elements), tuple(map(tuple, add)), tuple(map(tuple, mul)))
    elements, add, mul = s.elements, s.add, s.mul
    rng = range(s.size)

    for a in rng:
        if add[a][a] != a:
            return AxiomViolation("additive idempotency", (elements[a],))
    for a, b in itertools.product(rng, repeat=2):
        if add[a][b] != add[b][a]:
            return AxiomViolation("additive commutativity", (elements[a], elements[b]))
    for a, b, c in itertools.product(rng, repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return AxiomViolation(
                "additive associativity", (elements[a], elements[b], elements[c])
            )
    for a, b, c in itertools.product(rng, repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return AxiomViolation(
                "multiplicative associativity", (elements[a], elements[b], elements[c])
            )
    for a, b, c in itertools.product(rng, repeat=3):
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return AxiomViolation(
                "left distributivity", (elements[a], elements[b], elements[c])
            )
        if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
            return AxiomViolation(
                "right distributivity", (elements[a], elements[b], elements[c])
            )
    return s


def adjoin_zero(s: FiniteSemiring, zero_name: str) -> FiniteSemiring:
    """Adjoin a fresh element that is an additive identity and multiplicative zero."""
    if zero_name in s.elements:
        raise ValueError(f"element name {zero_name!r} already in carrier")
    n = s.size
    elements = s.elements + (zero_name,)
    add = tuple(
        tuple(s.add[i] + (i,)) for i in range(n)
    ) + (tuple(range(n)) + (n,),)
    mul = tuple(
        tuple(s.mul[i] + (n,)) for i in range(n)
    ) + ((n,) * (n + 1),)
    result = validate_ai_semiring(elements, add, mul)
    assert isinstance(result, FiniteSemiring), result
    return result


def _block_index(blocks) -> dict[int, int]:
    """Each element index of the blocks mapped to the number of its block."""
    return {i: b for b, block in enumerate(blocks) for i in block}


def _normalize_partition(s: FiniteSemiring, partition) -> tuple[tuple[int, ...], ...]:
    blocks = []
    for block in partition:
        indices = []
        for member in block:
            if isinstance(member, str):
                indices.append(s.index_of(member))
            else:
                indices.append(int(member))
        blocks.append(tuple(sorted(indices)))
    blocks.sort()
    seen = [i for block in blocks for i in block]
    if sorted(seen) != list(range(s.size)) or any(not b for b in blocks):
        raise ValueError("blocks must partition the carrier exactly")
    return tuple(blocks)


def validate_congruence(s: FiniteSemiring, partition) -> Congruence | CongruenceViolation:
    """Check compatibility of a carrier partition with both operations.

    Blocks may be given as element names or indices. Non-partitions raise
    ValueError; an incompatible partition yields a CongruenceViolation with
    a counterexample quadruple.
    """
    blocks = _normalize_partition(s, partition)
    block_of = _block_index(blocks)
    names = s.elements
    for label, table in (("addition", s.add), ("multiplication", s.mul)):
        for block_a in blocks:
            for a, a2 in itertools.product(block_a, repeat=2):
                for block_b in blocks:
                    for b, b2 in itertools.product(block_b, repeat=2):
                        if block_of[table[a][b]] != block_of[table[a2][b2]]:
                            return CongruenceViolation(
                                label, (names[a], names[a2], names[b], names[b2])
                            )
    return Congruence(blocks)


def quotient(s: FiniteSemiring, rho: Congruence) -> FiniteSemiring:
    """Quotient semiring: blocks become elements, named by joining member names."""
    blocks = rho.partition
    block_of = _block_index(blocks)
    elements = tuple("|".join(s.elements[i] for i in block) for block in blocks)
    k = len(blocks)
    add = tuple(
        tuple(block_of[s.add[blocks[a][0]][blocks[b][0]]] for b in range(k))
        for a in range(k)
    )
    mul = tuple(
        tuple(block_of[s.mul[blocks[a][0]][blocks[b][0]]] for b in range(k))
        for a in range(k)
    )
    result = validate_ai_semiring(elements, add, mul)
    assert isinstance(result, FiniteSemiring), result
    return result


def find_isomorphism(s1: FiniteSemiring, s2: FiniteSemiring):
    """Search all carrier bijections; return one transporting both tables, or None."""
    if s1.size != s2.size:
        return None
    n = s1.size
    if n > ISO_CARRIER_CAP:
        raise SizeLimitError("ISO_CARRIER_CAP", n, ISO_CARRIER_CAP, "elements")
    rng = range(n)
    for perm in itertools.permutations(rng):
        if all(
            perm[s1.add[i][j]] == s2.add[perm[i]][perm[j]]
            and perm[s1.mul[i][j]] == s2.mul[perm[i]][perm[j]]
            for i in rng
            for j in rng
        ):
            return {s1.elements[i]: s2.elements[perm[i]] for i in rng}
    return None


def is_isomorphic(s1: FiniteSemiring, s2: FiniteSemiring) -> bool:
    return find_isomorphism(s1, s2) is not None


# the literal tables of the builtin semirings; S7_0 is built from S7. D2 is
# the zero adjunction of trivial, but adjoin_zero would list 1 before 0, and
# the oracle's first witness follows the element order
_BUILTIN_TABLES = {
    "S7": (
        ("1", "a", "0"),
        ((0, 2, 2), (2, 1, 2), (2, 2, 2)),
        ((0, 1, 2), (1, 2, 2), (2, 2, 2)),
    ),
    "D2": (("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1))),
    "trivial": (("1",), ((0,),), ((0,),)),
}

BUILTIN_NAMES = ("S7", "S7_0", "D2", "trivial")


@functools.cache
def builtin(name: str) -> FiniteSemiring:
    """Return a named built-in algebra: S7, S7_0 (S7 with the zero ∞
    adjoined), D2 or trivial. Each is validated once per process; the
    result is frozen, so it is shared."""
    if name == "S7_0":
        return adjoin_zero(builtin("S7"), "∞")
    if name not in _BUILTIN_TABLES:
        raise ValueError(f"unknown builtin semiring {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    result = validate_ai_semiring(*_BUILTIN_TABLES[name])
    assert isinstance(result, FiniteSemiring), result
    return result


def semiring_to_json(s: FiniteSemiring) -> str:
    """Canonical JSON text for a semiring; byte-stable for a fixed element order."""
    import json

    doc = {
        "elements": list(s.elements),
        "add": [[s.elements[c] for c in row] for row in s.add],
        "mul": [[s.elements[c] for c in row] for row in s.mul],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def json_document(text: str):
    """json.loads(text), the one reader of the semiring, axioms and chain
    files: malformed text, and nesting too deep for json's recursive decoder,
    raise ValueError."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None


def tables_from_json(text: str):
    """Parse the semiring file format into (elements, add, mul) index tables.

    Structural problems (missing fields, non-square tables, unknown names)
    raise ValueError; no axiom checking happens here.
    """
    doc = json_document(text)
    if not isinstance(doc, dict):
        raise ValueError("semiring file must be a JSON object")
    for key in ("elements", "add", "mul"):
        if key not in doc:
            raise ValueError(f"semiring file missing field {key!r}")
    elements = doc["elements"]
    if (
        not isinstance(elements, list)
        or not elements
        or any(not isinstance(e, str) for e in elements)
    ):
        raise ValueError("'elements' must be a nonempty array of strings")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("element names must be distinct")

    def table(key):
        rows = doc[key]
        if not isinstance(rows, list) or len(rows) != len(elements):
            raise ValueError(f"{key!r} must be a {len(elements)}x{len(elements)} array")
        out = []
        for row in rows:
            if not isinstance(row, list) or len(row) != len(elements):
                raise ValueError(f"{key!r} must be a {len(elements)}x{len(elements)} array")
            for cell in row:
                if not isinstance(cell, str) or cell not in index:
                    raise ValueError(f"{key!r} entry {cell!r} is not an element name")
            out.append(tuple(index[cell] for cell in row))
        return tuple(out)

    return tuple(elements), table("add"), table("mul")


def semiring_from_json(text: str) -> FiniteSemiring | AxiomViolation:
    """Parse and axiom-check a semiring file."""
    elements, add, mul = tables_from_json(text)
    return validate_ai_semiring(elements, add, mul)
