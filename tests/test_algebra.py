import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aisemiring import (
    BUILTIN_NAMES,
    AxiomViolation,
    Congruence,
    CongruenceViolation,
    FiniteSemiring,
    SizeLimitError,
    adjoin_zero,
    builtin,
    find_isomorphism,
    is_isomorphic,
    quotient,
    semiring_from_json,
    semiring_to_json,
    tables_from_json,
    validate_ai_semiring,
    validate_congruence,
)
from aisemiring.algebra import ISO_CARRIER_CAP


def named_table(s, table):
    return [[s.elements[c] for c in row] for row in table]


S7_ADD_NAMED = [
    ["1", "0", "0"],
    ["0", "a", "0"],
    ["0", "0", "0"],
]
S7_MUL_NAMED = [
    ["1", "a", "0"],
    ["a", "0", "0"],
    ["0", "0", "0"],
]
S7_0_ADD_NAMED = [
    ["1", "0", "0", "1"],
    ["0", "a", "0", "a"],
    ["0", "0", "0", "0"],
    ["1", "a", "0", "∞"],
]
S7_0_MUL_NAMED = [
    ["1", "a", "0", "∞"],
    ["a", "0", "0", "∞"],
    ["0", "0", "0", "∞"],
    ["∞", "∞", "∞", "∞"],
]


class TestBuiltins:
    def test_s7_tables(self):
        s = builtin("S7")
        assert s.elements == ("1", "a", "0")
        assert named_table(s, s.add) == S7_ADD_NAMED
        assert named_table(s, s.mul) == S7_MUL_NAMED

    def test_s7_0_tables(self):
        s = builtin("S7_0")
        assert s.elements == ("1", "a", "0", "∞")
        assert named_table(s, s.add) == S7_0_ADD_NAMED
        assert named_table(s, s.mul) == S7_0_MUL_NAMED

    def test_d2_is_the_two_element_lattice(self):
        s = builtin("D2")
        assert s.size == 2
        # + is join, * is meet
        assert s.add_named("0", "1") == "1"
        assert s.add_named("0", "0") == "0"
        assert s.mul_named("0", "1") == "0"
        assert s.mul_named("1", "1") == "1"

    def test_trivial(self):
        s = builtin("trivial")
        assert s.size == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("S8")

    def test_builtin_is_built_once(self):
        assert builtin("S7") is builtin("S7")
        assert builtin("S7_0") is not builtin("S7")

    def test_unknown_name_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown builtin"):
                builtin("S8")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_table_facts(self, name):
        s = builtin(name)
        assert all(s.add[s.additive_top][e] == s.additive_top for e in range(s.size))
        assert s.mul_commutes

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_add_with_empty(self, name):
        # index size is the empty sum: it gives the other operand back
        s = builtin(name)
        n = s.size
        table = s.add_with_empty
        assert [row[:n] for row in table[:n]] == list(s.add)
        assert [table[n][e] for e in range(n + 1)] == list(range(n + 1))
        assert [table[e][n] for e in range(n + 1)] == list(range(n + 1))


class TestValidation:
    def test_valid_tables_round(self):
        s = builtin("S7")
        out = validate_ai_semiring(s.elements, s.add, s.mul)
        assert isinstance(out, FiniteSemiring)
        assert out == s

    def test_broken_idempotency(self):
        out = validate_ai_semiring(("x", "y"), ((1, 1), (1, 1)), ((0, 0), (0, 0)))
        assert isinstance(out, AxiomViolation)
        assert out.law == "additive idempotency"
        assert out.witness == ("x",)

    def test_broken_commutativity(self):
        # max on a 2-chain with one cell flipped
        out = validate_ai_semiring(("x", "y"), ((0, 1), (0, 1)), ((0, 0), (0, 1)))
        assert isinstance(out, AxiomViolation)
        assert out.law == "additive commutativity"

    def test_broken_distributivity(self):
        # join for +, but * projects onto the left argument except 1*1
        add = ((0, 1), (1, 1))
        mul = ((0, 0), (1, 0))
        out = validate_ai_semiring(("0", "1"), add, mul)
        assert isinstance(out, AxiomViolation)
        assert "distributivity" in out.law or "associativity" in out.law

    def test_structural_errors_raise(self):
        with pytest.raises(ValueError):
            validate_ai_semiring((), (), ())
        with pytest.raises(ValueError):
            validate_ai_semiring(("x",), ((0, 0),), ((0,),))
        with pytest.raises(ValueError):
            validate_ai_semiring(("x",), ((5,),), ((0,),))
        with pytest.raises(ValueError):
            validate_ai_semiring(("x", "x"), ((0, 0), (0, 0)), ((0, 0), (0, 0)))


class TestConstructions:
    def test_adjoin_zero_matches_builtin_cellwise(self):
        assert adjoin_zero(builtin("S7"), "∞") == builtin("S7_0")

    def test_adjoin_zero_laws(self):
        s = adjoin_zero(builtin("D2"), "z")
        for e in s.elements:
            assert s.add_named("z", e) == e
            assert s.mul_named("z", e) == "z"
            assert s.mul_named(e, "z") == "z"

    def test_adjoin_zero_name_clash(self):
        with pytest.raises(ValueError, match="already in carrier"):
            adjoin_zero(builtin("S7"), "a")

    def test_congruence_and_quotient(self):
        s70 = builtin("S7_0")
        rho = validate_congruence(s70, [["1", "a", "0"], ["∞"]])
        assert isinstance(rho, Congruence)
        q = quotient(s70, rho)
        assert q.size == 2
        assert is_isomorphic(q, builtin("D2"))
        assert q.elements == ("1|a|0", "∞")
        assert [rho.block_of(i) for i in range(4)] == [0, 0, 0, 1]
        with pytest.raises(ValueError, match="index 4 not covered by partition"):
            rho.block_of(4)

    def test_incompatible_partition(self):
        s7 = builtin("S7")
        out = validate_congruence(s7, [["1", "a"], ["0"]])
        assert isinstance(out, CongruenceViolation)

    def test_non_partition_raises(self):
        s7 = builtin("S7")
        with pytest.raises(ValueError):
            validate_congruence(s7, [["1", "a"], ["a", "0"]])
        with pytest.raises(ValueError):
            validate_congruence(s7, [["1"]])


class TestIsomorphism:
    def test_relabeled_copy(self):
        s7 = builtin("S7")
        relabeled = FiniteSemiring(("e", "b", "n"), s7.add, s7.mul)
        phi = find_isomorphism(s7, relabeled)
        assert phi is not None
        assert phi["1"] == "e" and phi["a"] == "b" and phi["0"] == "n"

    def test_permuted_copy(self):
        s7 = builtin("S7")
        perm = (2, 0, 1)  # new index of old element i
        inv = [0] * 3
        for old, new in enumerate(perm):
            inv[new] = old
        elements = tuple(s7.elements[inv[j]] + "'" for j in range(3))
        add = tuple(
            tuple(perm[s7.add[inv[i]][inv[j]]] for j in range(3)) for i in range(3)
        )
        mul = tuple(
            tuple(perm[s7.mul[inv[i]][inv[j]]] for j in range(3)) for i in range(3)
        )
        other = FiniteSemiring(elements, add, mul)
        phi = find_isomorphism(s7, other)
        assert phi == {"1": "1'", "a": "a'", "0": "0'"}

    def test_not_isomorphic(self):
        assert not is_isomorphic(builtin("D2"), builtin("trivial"))
        assert not is_isomorphic(builtin("S7"), builtin("S7_0"))
        # same size, different structure: D2 vs the 2-chain with + = min
        other = validate_ai_semiring(("0", "1"), ((0, 0), (0, 1)), ((0, 0), (0, 1)))
        assert isinstance(other, FiniteSemiring)
        assert not is_isomorphic(builtin("D2"), other)

    def test_carrier_past_the_cap_raises(self):
        # the 9-chain with + = * = max, twice: a search over 9! bijections
        n = ISO_CARRIER_CAP + 1
        table = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
        chain = validate_ai_semiring([f"c{i}" for i in range(n)], table, table)
        copy = FiniteSemiring(tuple(f"d{i}" for i in range(n)), table, table)
        message = f"^capped by ISO_CARRIER_CAP: {n} elements, limit {ISO_CARRIER_CAP}$"
        with pytest.raises(SizeLimitError, match=message):
            find_isomorphism(chain, copy)
        with pytest.raises(SizeLimitError, match=message):
            is_isomorphic(chain, copy)

    @given(st.permutations(range(4)))
    def test_any_relabeling_is_isomorphic(self, perm):
        s = builtin("S7_0")
        inv = [0] * 4
        for old, new in enumerate(perm):
            inv[new] = old
        elements = tuple(f"e{j}" for j in range(4))
        add = tuple(
            tuple(perm[s.add[inv[i]][inv[j]]] for j in range(4)) for i in range(4)
        )
        mul = tuple(
            tuple(perm[s.mul[inv[i]][inv[j]]] for j in range(4)) for i in range(4)
        )
        assert is_isomorphic(s, FiniteSemiring(elements, add, mul))


class TestJsonFormat:
    def test_round_trip(self):
        for name in ("S7", "S7_0", "D2", "trivial"):
            s = builtin(name)
            back = semiring_from_json(semiring_to_json(s))
            assert back == s

    def test_dump_is_byte_stable(self):
        assert semiring_to_json(builtin("S7")) == semiring_to_json(builtin("S7"))

    def test_structural_rejections(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            tables_from_json("{")
        with pytest.raises(ValueError, match="missing field"):
            tables_from_json('{"elements": ["x"]}')
        with pytest.raises(ValueError, match="array"):
            tables_from_json('{"elements": ["x"], "add": [["x"], ["x"]], "mul": [["x"]]}')
        with pytest.raises(ValueError, match="not an element name"):
            tables_from_json('{"elements": ["x"], "add": [["y"]], "mul": [["x"]]}')
        for cell in ('["x"]', '{"x": 1}', "1", "null", "true"):
            with pytest.raises(ValueError, match="'add' entry .* is not an element name"):
                tables_from_json('{"elements": ["x"], "add": [[%s]], "mul": [["x"]]}' % cell)
        with pytest.raises(ValueError, match="not valid JSON: maximum recursion depth"):
            tables_from_json("[" * 100_000)

    def test_axiom_failure_reported_not_raised(self):
        text = (
            '{"elements": ["x", "y"],'
            ' "add": [["x", "y"], ["x", "y"]],'
            ' "mul": [["x", "x"], ["x", "x"]]}'
        )
        out = semiring_from_json(text)
        assert isinstance(out, AxiomViolation)


def test_validate_scans_all_triples():
    # associativity holds on most triples here; the scan must still find the bad one
    elements = ("0", "1")
    add = ((0, 1), (1, 1))
    mul = ((0, 0), (0, 1))
    good = validate_ai_semiring(elements, add, mul)
    assert isinstance(good, FiniteSemiring)
    for a, b in itertools.product(range(2), repeat=2):
        assert good.add[a][b] == good.add[b][a]
