"""Shared lexer for XPath and the FLWOR subset.

A single token stream serves both parsers: the XQuery parser needs every
XPath token plus keywords (``for``, ``let``, ``where``, ``order``,
``by``, ``return``, ``in``), ``:=``, commas, braces and the node-order
comparators.  Element constructors inside a ``return`` clause are lexed
separately by the XQuery parser because they switch to XML mode.

Keywords are *contextual*: ``for`` is a valid tag or variable name, so
the lexer emits plain NAME tokens and the parsers decide what is a
keyword where — the same strategy real XQuery grammars use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuerySyntaxError

__all__ = [
    "Token",
    "tokenize_query",
    "NAME", "NUMBER", "STRING", "VARIABLE", "SYMBOL", "EOF",
]

NAME = "name"
NUMBER = "number"
STRING = "string"
VARIABLE = "variable"
SYMBOL = "symbol"
EOF = "eof"

# Multi-character symbols first so maximal munch works.
_SYMBOLS = [
    "<<", ">>", "!=", "<=", ">=", ":=", "::", "//", "..",
    "/", "[", "]", "(", ")", "@", ".", "*", "=", "<", ">",
    ",", "$", "{", "}", "|", "+", "-",
]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789.-")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str
    value: str
    pos: int

    def is_symbol(self, text: str) -> bool:
        return self.kind == SYMBOL and self.value == text

    def is_name(self, text: str) -> bool:
        return self.kind == NAME and self.value == text


def tokenize_query(text: str) -> list[Token]:
    """Tokenize a query string; always ends with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "(" and text.startswith("(:", i):
            # XQuery comment (: ... :), nestable.
            depth = 0
            j = i
            while j < n:
                if text.startswith("(:", j):
                    depth += 1
                    j += 2
                elif text.startswith(":)", j):
                    depth -= 1
                    j += 2
                    if depth == 0:
                        break
                else:
                    j += 1
            if depth != 0:
                raise QuerySyntaxError("unterminated comment", i, text)
            i = j
            continue
        if ch in "\"'":
            j = text.find(ch, i + 1)
            if j < 0:
                raise QuerySyntaxError("unterminated string literal", i, text)
            tokens.append(Token(STRING, text[i + 1:j], i))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(Token(NUMBER, text[i:j], i))
            i = j
            continue
        if ch == "$":
            j = i + 1
            if j >= n or text[j] not in _NAME_START:
                raise QuerySyntaxError("expected variable name after '$'", i, text)
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(Token(VARIABLE, text[i + 1:j], i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            # Names may not end with '.' or '-' (they belong to symbols).
            while text[j - 1] in ".-":
                j -= 1
            tokens.append(Token(NAME, text[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(SYMBOL, sym, i))
                i += len(sym)
                break
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r}", i, text)
    tokens.append(Token(EOF, "", n))
    return tokens


class TokenCursor:
    """Forward cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
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

    def error(self, message: str) -> QuerySyntaxError:
        return QuerySyntaxError(message, self.current.pos, self.source)
