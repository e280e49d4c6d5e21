"""Surface grammar for identities and terms.

    identity := term ("==" | "≈") term
    term     := word ("+" word)*
    word     := factor ("*" factor)*
    factor   := variable ("^" positiveint)?
    variable := [A-Za-z][A-Za-z0-9_]*

Factors are joined with an explicit "*" since multi-character variable
names make implicit juxtaposition ambiguous. "^k" expands to k-fold
repetition at parse time; the core never stores exponents. Whitespace is
insignificant. A word, exponents expanded, has at most MAX_WORD_LENGTH
letters; longer ones are rejected with a ParseError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import Identity, Term, Word

MAX_WORD_LENGTH = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


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


class _Parser:
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


def parse_term(text: str, commutative: bool = False) -> Term:
    """Parse a term (the sum-of-words fragment of the grammar)."""
    p = _Parser(text)
    words = p.parse_term_words()
    p.expect_end()
    return Term(words, commutative)


def parse_word(text: str, commutative: bool = False) -> Word:
    """Parse a single word; commutative mode normalizes letter order."""
    p = _Parser(text)
    w = p.parse_word()
    p.expect_end()
    return tuple(sorted(w)) if commutative else w


def parse_identity(text: str, commutative: bool = False) -> Identity:
    """Parse lhs == rhs (or lhs ≈ rhs) into an Identity."""
    p = _Parser(text)
    lhs = p.parse_term_words()
    tok = p.peek()
    if tok.kind != "eq":
        p.fail("expected '==' or '≈' between the two sides")
    p.advance()
    rhs = p.parse_term_words()
    p.expect_end()
    return Identity(Term(lhs, commutative), Term(rhs, commutative))
