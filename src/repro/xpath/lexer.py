"""Shared lexer for XPath and the FLWOR subset.

A single token stream serves both parsers: :class:`TokenCursor` lexes
the *whole* query text lazily, the XPath productions and the FLWOR
productions consume the same cursor, and every token (and so every
error) carries its absolute offset into the text the caller sent.  The
XQuery parser needs every XPath token plus keywords (``for``, ``let``,
``where``, ``order``, ``by``, ``return``, ``in``), ``:=``, commas,
braces and the node-order comparators.  Only the inside of a direct
element constructor is not lexed here — its content is arbitrary text —
so the XQuery parser reads that at character level and re-seats the
cursor (:meth:`TokenCursor.seek`) at each ``{`` and after the end tag.

Keywords are *contextual*: ``for`` is a valid tag or variable name, so
the lexer emits plain NAME tokens and the parsers decide what is a
keyword where — the same strategy real XQuery grammars use.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import QuerySyntaxError

__all__ = [
    "Token",
    "TokenCursor",
    "tokenize_query",
    "skip_trivia",
    "NAME", "NUMBER", "STRING", "VARIABLE", "SYMBOL", "EOF",
]

NAME = "name"
NUMBER = "number"
STRING = "string"
VARIABLE = "variable"
SYMBOL = "symbol"
EOF = "eof"

_NON_SPACE = re.compile(r"[^ \t\r\n]")

# One alternative per token kind (the group name *is* the kind).  Names
# may not end with '.' or '-' (those belong to symbols); a number takes
# every digit and dot that follows so a malformed numeral is one token
# the lexer can reject; multi-character symbols come first so maximal
# munch works.
_TOKEN = re.compile(r"""
    (?P<name>[A-Za-z_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_])?)
  | (?P<variable>\$[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<number>\d[\d.]*)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<symbol><<|>>|!=|<=|>=|:=|::|//|\.\.|[/\[\]()@.*=<>,{}|+\-])
""", re.VERBOSE)


class Token(NamedTuple):
    """One lexical token with its absolute source position."""

    kind: str
    value: str
    pos: int

    def is_symbol(self, text: str) -> bool:
        return self.kind == SYMBOL and self.value == text

    def is_name(self, text: str) -> bool:
        return self.kind == NAME and self.value == text


def skip_trivia(text: str, pos: int) -> int:
    """The offset of the first character at or after ``pos`` that is
    neither whitespace nor inside a (nestable) ``(: comment :)``."""
    while True:
        found = _NON_SPACE.search(text, pos)
        if found is None:
            return len(text)
        pos = found.start()
        if not text.startswith("(:", pos):
            return pos
        start, depth = pos, 0
        while True:
            opener, closer = text.find("(:", pos), text.find(":)", pos)
            if closer < 0:
                raise QuerySyntaxError("unterminated comment", start, text)
            if 0 <= opener < closer:
                depth, pos = depth + 1, opener + 2
            else:
                depth, pos = depth - 1, closer + 2
                if depth == 0:
                    break


class TokenCursor:
    """Lazy forward lexer over one query text.

    ``current`` is always lexed; :meth:`peek` lexes exactly one token
    further on demand and nothing is ever lexed beyond that, so text
    the grammar never reaches as tokens (constructor content) is never
    tokenized.
    """

    __slots__ = ("source", "current", "_ahead", "_pos")

    def __init__(self, source: str) -> None:
        self.source = source
        self._pos = 0
        self._ahead: Token | None = None
        self.current: Token = self._lex()

    def seek(self, pos: int) -> None:
        """Re-seat the cursor: the token starting at or after ``pos``
        becomes ``current`` and any lookahead is dropped."""
        self._pos = pos
        self._ahead = None
        self.current = self._lex()

    def _lex(self) -> Token:
        text = self.source
        pos = skip_trivia(text, self._pos)
        match = _TOKEN.match(text, pos)
        if match is None:
            self._pos = pos
            if pos >= len(text):
                return Token(EOF, "", pos)
            ch = text[pos]
            raise QuerySyntaxError(
                "unterminated string literal" if ch in "\"'" else
                "expected variable name after '$'" if ch == "$" else
                f"unexpected character {ch!r}", pos, text)
        self._pos = match.end()
        kind, value = match.lastgroup, match.group()
        assert kind is not None     # every alternative is a named group
        if kind == STRING:
            value = value[1:-1]
        elif kind == VARIABLE:
            value = value[1:]
        elif kind == NUMBER and value.count(".") > 1:
            raise QuerySyntaxError(f"malformed number {value!r}", pos, text)
        return Token(kind, value, pos)

    def peek(self) -> Token:
        """The token after ``current`` (the grammar's only lookahead)."""
        if self._ahead is None:
            self._ahead = self._lex()
        return self._ahead

    def advance(self) -> Token:
        token = self.current
        if token.kind != EOF:
            ahead, self._ahead = self._ahead, None
            self.current = ahead if ahead is not None else self._lex()
        return token

    def accept_symbol(self, text: str) -> bool:
        if self.current.is_symbol(text):
            self.advance()
            return True
        return False

    def expect_symbol(self, text: str) -> Token:
        if not self.current.is_symbol(text):
            raise self.error(f"expected {text!r}, got {self.current.value!r}")
        return self.advance()

    def expect_name(self, text: str) -> Token:
        if not self.current.is_name(text):
            raise self.error(f"expected keyword {text!r}, got {self.current.value!r}")
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        if self.current.kind != kind:
            raise self.error(f"expected {kind}, got {self.current.value!r}")
        return self.advance()

    def at_eof(self) -> bool:
        return self.current.kind == EOF

    def error(self, message: str, pos: int | None = None) -> QuerySyntaxError:
        """A syntax error at ``pos`` (default: the current token)."""
        return QuerySyntaxError(
            message, self.current.pos if pos is None else pos, self.source)


def tokenize_query(text: str) -> list[Token]:
    """Every token the cursor produces over ``text``; ends with EOF."""
    cursor = TokenCursor(text)
    tokens = [cursor.current]
    while tokens[-1].kind != EOF:
        cursor.advance()
        tokens.append(cursor.current)
    return tokens
