import re
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring import (
    Identity,
    ParseError,
    Term,
    parse_identity,
    parse_term,
    parse_word,
)
from aisemiring import parsing
from aisemiring.parsing import MAX_WORD_LENGTH
from aisemiring.terms import Word

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


# The tokenizer-based parser the one-pass scanner replaced, kept as the
# reference the differential test compares against.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<var>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<eq>==|≈)"
    r"|(?P<op>[+*^])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse_factor(self) -> tuple[str, int]:
        tok = self.peek()
        if tok.kind != "var":
            self.fail(
                "expected a variable"
                if tok.kind != "end"
                else "unexpected end of input, expected a variable"
            )
        self.advance()
        exponent = 1
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "int":
                self.fail("expected an integer exponent after '^'")
            self.advance()
            # count digits before int(), which refuses strings of over 4300
            digits = etok.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_WORD_LENGTH)):
                digits = str(MAX_WORD_LENGTH + 1)
            exponent = int(digits)
            if exponent < 1:
                raise ParseError("exponent must be positive", etok.line, etok.column)
        return tok.text, exponent

    def parse_word(self) -> Word:
        letters = []
        while True:
            tok = self.peek()
            name, k = self.parse_factor()
            if len(letters) + k > MAX_WORD_LENGTH:
                raise ParseError(
                    f"word longer than {MAX_WORD_LENGTH} letters", tok.line, tok.column
                )
            letters.extend([name] * k)
            if not (self.peek().kind == "op" and self.peek().text == "*"):
                return tuple(letters)
            self.advance()

    def parse_term_words(self) -> list[Word]:
        words = [self.parse_word()]
        while self.peek().kind == "op" and self.peek().text == "+":
            self.advance()
            words.append(self.parse_word())
        return words

    def expect_end(self):
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")


def _reference_parse(entry: str, text: str, commutative: bool = False):
    """parse_term, parse_word or parse_identity (entry "term", "word" or
    "identity") as the tokenizer-based parser gave them."""
    p = _ReferenceParser(text)
    if entry == "term":
        words = p.parse_term_words()
        p.expect_end()
        return Term(words, commutative)
    if entry == "word":
        w = p.parse_word()
        p.expect_end()
        return tuple(sorted(w)) if commutative else w
    lhs = p.parse_term_words()
    tok = p.peek()
    if tok.kind != "eq":
        p.fail("expected '==' or '≈' between the two sides")
    p.advance()
    rhs = p.parse_term_words()
    p.expect_end()
    return Identity(Term(lhs, commutative), Term(rhs, commutative))


_ENTRIES = {"term": parse_term, "word": parse_word, "identity": parse_identity}


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


_PIECES = (
    # names, digits, zero-padded and Unicode digits
    "x", "y", "x1", "ab_2", "Z", "0", "7", "12", "007", "٣", "0٣",
    # operators and relations
    "+", "*", "^", "==", "≈",
    # stray characters
    "=", "_", "-", "$", "é",
    # whitespace
    " ", "  ", "\t", "\n", "\x1c",
)


class TestAgainstReference:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(st.sampled_from(_PIECES), max_size=14).map("".join),
        st.sampled_from(sorted(_ENTRIES)),
        st.booleans(),
    )
    def test_same_result_or_error(self, text, entry, commutative):
        new = _outcome(_ENTRIES[entry], text, commutative)
        assert new == _outcome(_reference_parse, entry, text, commutative)

    def test_error_on_second_line(self):
        text = "x*y + y\n  + ^2 == x"
        error = ("ParseError", "expected a variable (line 2, column 5)", 2, 5)
        assert _outcome(parse_identity, text) == error
        assert _outcome(_reference_parse, "identity", text) == error

    def test_stray_character_before_grammar_error(self):
        with pytest.raises(ParseError, match=r"unexpected character '\$' \(line 2, column 3\)"):
            parse_identity("x + + y\nz $")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x == y" + " " * 10**6, None),
            ("x == y" + " " * 10**6 + "$", "unexpected character '$' (line 1, column 1000007)"),
            (" \n\t" * 10**6, "unexpected end of input, expected a variable (line 1000001, column 2)"),
        ],
        ids=["trailing-spaces", "trailing-spaces-then-stray", "whitespace-only"],
    )
    def test_linear_time(self, text, message):
        start = time.perf_counter()
        if message is None:
            assert parse_identity(text) == parse_identity("x == y")
        else:
            with pytest.raises(ParseError) as exc:
                parse_identity(text)
            assert str(exc.value) == message
        assert time.perf_counter() - start < 0.5


# the one-pass scanner's pattern before "≈" left the character class, kept
# as the reference for the one in parsing
_CLASS_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+|==|[≈+*^]|\S)")


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="xyZ09_=≈+*^ \t\n\x1c≠∗é٣", max_size=20))
def test_scanner_tokens_match_the_class_pattern(text):
    assert parsing._TOKEN_RE.findall(text) == _CLASS_TOKEN_RE.findall(text)
