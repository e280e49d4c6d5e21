import pytest
from hypothesis import given
from hypothesis import strategies as st

from aisemiring import (
    Identity,
    ParseError,
    Term,
    parse_identity,
    parse_term,
    parse_word,
)
from aisemiring.parsing import MAX_WORD_LENGTH

NAMES = ("x", "y", "x1", "x10", "long_name")


def words(alphabet=NAMES, max_len=4):
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_len).map(tuple)


def terms(commutative):
    return st.builds(
        lambda ws: Term(ws, commutative),
        st.lists(words(), min_size=1, max_size=4),
    )


class TestGrammar:
    def test_power_and_product(self):
        t = parse_term("x^2*y")
        assert t.words == (("x", "x", "y"),)

    def test_sum(self):
        t = parse_term("x^2 + y")
        assert t.word_set() == {("x", "x"), ("y",)}

    def test_identity_both_arrows(self):
        a = parse_identity("x^2 + y == x^2*y^2")
        b = parse_identity("x^2 + y ≈ x^2*y^2")
        assert a == b
        assert a.lhs.word_set() == {("x", "x"), ("y",)}
        assert a.rhs.words == (("x", "x", "y", "y"),)

    def test_witness_shape(self):
        ident = parse_identity(
            "x1*x2 + x2*x3 + x3*x1 == x1*x2*x3", commutative=True
        )
        assert len(ident.lhs) == 3
        assert ident.rhs.words == ((("x1", "x2", "x3")),)

    def test_multichar_names_need_stars(self):
        assert parse_word("xy") == ("xy",)  # one variable named xy
        with pytest.raises(ParseError):
            parse_term("x y")

    def test_whitespace_insignificant(self):
        assert parse_term(" x ^2+ y ") == parse_term("x^2 + y")

    def test_commutative_flag(self):
        assert parse_term("y*x", commutative=True).words == (("x", "y"),)
        assert parse_term("y*x").words == (("y", "x"),)

    def test_exponent_expansion(self):
        assert parse_word("x^4") == ("x", "x", "x", "x")


class TestRejections:
    def test_zero_exponent(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_identity("x^0 == x")

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_term("x^-1")

    def test_missing_operand(self):
        for bad in ("", "+ x", "x +", "x * ", "x ==", "== x", "x == y == z"):
            with pytest.raises(ParseError):
                parse_identity(bad if "==" in bad else bad + " == x")

    def test_stray_character(self):
        with pytest.raises(ParseError, match="column"):
            parse_term("x $ y")

    def test_identity_needs_relation(self):
        with pytest.raises(ParseError):
            parse_identity("x + y")

    def test_word_length_bound(self):
        assert len(parse_word(f"x^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
        for bad in (
            "x^3000000",
            "x^" + "9" * 5000,
            f"x^{MAX_WORD_LENGTH + 1}",
            f"x^{MAX_WORD_LENGTH}*y",
            "*".join(["x"] * (MAX_WORD_LENGTH + 1)),
        ):
            with pytest.raises(ParseError, match=f"longer than {MAX_WORD_LENGTH}"):
                parse_identity(f"y == {bad}")

    def test_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line 1, column 5"):
            parse_term("x + ^2")


class TestRoundTrip:
    @given(terms(commutative=False))
    def test_term_noncommutative(self, t):
        assert parse_term(str(t)) == t

    @given(terms(commutative=True))
    def test_term_commutative(self, t):
        assert parse_term(str(t), commutative=True) == t

    @given(terms(commutative=False), terms(commutative=False))
    def test_identity(self, lhs, rhs):
        ident = Identity(lhs, rhs)
        assert parse_identity(str(ident)) == ident
