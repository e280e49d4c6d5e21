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

The text is scanned in one linear regex pass; a ParseError works out its
line and column from the offset of the token it names.
"""

from __future__ import annotations

import re

from .terms import Identity, Term, Word

MAX_WORD_LENGTH = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# a token is a variable, an integer, "==" or any other one non-space
# character: "≈", an operator or a stray character. The scanner reads
# text.rstrip(), so every whitespace run is followed by a token and \s*
# never backtracks. No character class names "≈": one with a character
# past U+00FF compiles to a big charset map, which made the import-time
# compile of this pattern about twice as slow.
_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+|==|\S)")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_SYMBOLS = frozenset(("==", "≈", "+", "*", "^", ""))  # "" ends the tokens


def _is_stray(tok: str) -> bool:
    """True for a character that starts no token (the scanner's last alternative)."""
    return not (tok[:1] in _LETTERS or tok.isdecimal() or tok in _SYMBOLS)


class _Parser:
    """Recursive descent over the tokens of text, ended by "" at the end of
    input. A stray token is never one the grammar accepts, so a parse
    that succeeds met none; one that fails reports the first stray token,
    if there is one, before its own error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text.rstrip())
        self.tokens.append("")
        self.pos = 0

    def fail(self, message: str, index: int):
        """Raise a ParseError at tokens[index]."""
        tokens = self.tokens
        stray = next((i for i, tok in enumerate(tokens) if _is_stray(tok)), None)
        if stray is not None:
            index, message = stray, f"unexpected character {tokens[stray]!r}"
        text = self.text
        starts = [m.start(1) for m in _TOKEN_RE.finditer(text.rstrip())] + [len(text)]
        p = starts[index]
        raise ParseError(message, text.count("\n", 0, p) + 1, p - text.rfind("\n", 0, p))

    def parse_word(self) -> Word:
        tokens = self.tokens
        i = self.pos
        letters: list[str] = []
        while True:
            name = tokens[i]
            if name[:1] not in _LETTERS:
                self.fail(
                    "expected a variable"
                    if name
                    else "unexpected end of input, expected a variable",
                    i,
                )
            k, after = 1, i + 1
            if tokens[after] == "^":
                digits = tokens[i + 2]
                if not digits.isdecimal():
                    self.fail("expected an integer exponent after '^'", i + 2)
                # count digits before int(), which refuses strings of over 4300
                digits = digits.lstrip("0") or "0"
                if len(digits) > len(str(MAX_WORD_LENGTH)):
                    digits = str(MAX_WORD_LENGTH + 1)
                k, after = int(digits), i + 3
                if k < 1:
                    self.fail("exponent must be positive", i + 2)
            if len(letters) + k > MAX_WORD_LENGTH:
                self.fail(f"word longer than {MAX_WORD_LENGTH} letters", i)
            letters.extend([name] * k)
            i = after
            if tokens[i] != "*":
                self.pos = i
                return tuple(letters)
            i += 1

    def parse_term_words(self) -> list[Word]:
        words = [self.parse_word()]
        while self.tokens[self.pos] == "+":
            self.pos += 1
            words.append(self.parse_word())
        return words

    def expect_end(self):
        tok = self.tokens[self.pos]
        if tok:
            self.fail(f"unexpected {tok!r}", self.pos)


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
    if p.tokens[p.pos] not in ("==", "≈"):
        p.fail("expected '==' or '≈' between the two sides", p.pos)
    p.pos += 1
    rhs = p.parse_term_words()
    p.expect_end()
    return Identity(Term(lhs, commutative), Term(rhs, commutative))
