"""Parser for the restricted FLWOR subset.

The FLWOR, sequence and enclosed-expression productions drive the same
:class:`~repro.xpath.lexer.TokenCursor` as the XPath productions they
extend: the whole query is lexed once, lazily, in one position space,
and an embedded path or boolean expression ends where the XPath grammar
stops consuming — so ``for``, ``let``, ``where``, ``order`` and
``return`` are keywords only where a clause may start and ordinary
element names everywhere a step is expected.

Only direct element constructors are read at character level: their
content is arbitrary text (``it's`` is not an unterminated string), so
it must never reach the lexer.  The constructor production scans from
the ``<`` token's offset, re-seats the cursor after each ``{`` for the
enclosed expressions, resumes scanning after the ``}`` and re-seats the
cursor once more after the end tag.

Supported query forms::

    <tag attr="v"> ... { expr } ... </tag>        (constructor, nestable)
    for/let ... where ... order by ... return ...  (FLWOR)
    any XPath expression                           (paths, comparisons, ...)

Enclosed expressions may contain comma-separated sequences; each item
is again any of the three forms, so Example 1's
``<bib>{ for ... return <book-pair>...</book-pair> }</bib>`` parses
naturally.
"""

from __future__ import annotations

import re

from repro.errors import QuerySyntaxError
from repro.xpath.ast import Expr
from repro.xpath.lexer import NAME, VARIABLE, TokenCursor, skip_trivia
from repro.xpath.parser import XPathParser
from repro.xquery.ast import (
    ElementConstructor,
    Enclosed,
    FLWOR,
    ForClause,
    LetClause,
    OrderSpec,
    QueryExpr,
    Sequence,
    TextItem,
    locate_flwor,
)

__all__ = ["parse_query", "parse_flwor"]

_NAME_RE = re.compile(r"[A-Za-z_][\w.-]*")


def parse_query(text: str) -> QueryExpr:
    """Parse a complete query (constructor, FLWOR, or XPath expression)."""
    parser = _QueryParser(TokenCursor(text))
    expr = parser.parse_expr_single()
    parser.expect_end()
    return expr


def parse_flwor(text: str) -> FLWOR:
    """Parse a query that must be (or wrap exactly one) FLWOR expression."""
    flwor = locate_flwor(parse_query(text))
    if flwor is None:
        raise QuerySyntaxError("query contains no FLWOR expression", 0, text)
    return flwor


class _QueryParser(XPathParser):
    """The XQuery-level productions, on the XPath parser's cursor."""

    def _at_clause(self) -> bool:
        """``for`` / ``let`` are clause keywords only before a ``$var``."""
        token = self.cursor.current
        return (token.kind == NAME and token.value in ("for", "let")
                and self.cursor.peek().kind == VARIABLE)

    def parse_expr_single(self) -> QueryExpr:
        cur = self.cursor
        token = cur.current
        self._descend()
        expr: QueryExpr
        if self._at_clause():
            expr = self.parse_flwor()
        elif token.is_symbol("<") and _NAME_RE.match(cur.source, token.pos + 1):
            expr, end = self._parse_constructor(token.pos)
            cur.seek(end)
        elif token.is_symbol("("):
            expr = self._parse_parenthesized()
        else:
            expr = self.parse_or_expr()
        self._depth -= 1
        return expr

    def _parse_parenthesized(self) -> QueryExpr:
        """``(a, b)`` is a sequence, ``(a = b) and c`` one XPath
        expression: the token after the first item decides."""
        cur = self.cursor
        cur.expect_symbol("(")
        if cur.accept_symbol(")"):
            return Sequence(())
        first = self.parse_expr_single()
        if cur.current.is_symbol(","):
            items = [first]
            while cur.accept_symbol(","):
                items.append(self.parse_expr_single())
            cur.expect_symbol(")")
            return Sequence(tuple(items))
        cur.expect_symbol(")")
        if isinstance(first, (FLWOR, ElementConstructor, Sequence)):
            return first
        # A grouped XPath operand: the operators after it, if any,
        # continue the same expression.
        return self.parse_or_expr(first)

    # -- FLWOR -------------------------------------------------------------

    def parse_flwor(self) -> FLWOR:
        cur = self.cursor
        clauses: list[ForClause | LetClause] = []
        while self._at_clause():
            iterating = cur.advance().value == "for"
            while True:
                var = cur.expect_kind(VARIABLE).value
                if iterating:
                    cur.expect_name("in")
                else:
                    cur.expect_symbol(":=")
                source = self.parse_path(top_level=True)
                clauses.append(ForClause(var, source) if iterating
                               else LetClause(var, source))
                if not cur.accept_symbol(","):
                    break

        where: Expr | None = None
        if cur.current.is_name("where"):
            cur.advance()
            where = self.parse_or_expr()

        order_by: list[OrderSpec] = []
        if cur.current.is_name("order"):
            cur.advance()
            cur.expect_name("by")
            while True:
                key = self.parse_or_expr()
                descending = cur.current.is_name("descending")
                if descending or cur.current.is_name("ascending"):
                    cur.advance()
                order_by.append(OrderSpec(key, descending))
                if not cur.accept_symbol(","):
                    break

        cur.expect_name("return")
        return FLWOR(tuple(clauses), where, tuple(order_by),
                     self.parse_expr_single())

    # -- element constructors ----------------------------------------------

    def _parse_constructor(self, pos: int) -> tuple[ElementConstructor, int]:
        """Parse the constructor whose ``<`` is at ``pos``, at character
        level; returns it with the offset just past its end tag."""
        cur = self.cursor
        text = cur.source
        tag, pos = self._take_name(pos + 1)
        attrs: list[tuple[str, str]] = []
        while True:
            pos = skip_trivia(text, pos)
            if text.startswith("/>", pos):
                return ElementConstructor(tag, tuple(attrs), ()), pos + 2
            if text.startswith(">", pos):
                pos += 1
                break
            name, pos = self._take_name(pos)
            pos = self._expect_char("=", skip_trivia(text, pos))
            pos = skip_trivia(text, pos)
            quote = text[pos:pos + 1]
            if not quote or quote not in "\"'":
                raise cur.error("attribute value must be quoted", pos)
            end = text.find(quote, pos + 1)
            if end < 0:
                raise cur.error("unterminated attribute value", pos + 1)
            attrs.append((name, text[pos + 1:end]))
            pos = end + 1

        content: list[TextItem | ElementConstructor | Enclosed] = []
        while True:
            if pos >= len(text):
                raise cur.error(f"unterminated constructor <{tag}>", pos)
            if text.startswith("</", pos):
                closing, end = self._take_name(pos + 2)
                if closing != tag:
                    raise cur.error(f"mismatched constructor end tag "
                                    f"</{closing}> for <{tag}>", pos + 2)
                return (ElementConstructor(tag, tuple(attrs), tuple(content)),
                        self._expect_char(">", skip_trivia(text, end)))
            if text[pos] == "<":
                self._descend(pos)
                nested, pos = self._parse_constructor(pos)
                self._depth -= 1
                content.append(nested)
            elif text[pos] == "{":
                cur.seek(pos + 1)
                exprs = [self.parse_expr_single()]
                while cur.accept_symbol(","):
                    exprs.append(self.parse_expr_single())
                if not cur.current.is_symbol("}"):
                    raise cur.error(f"expected '}}', got {cur.current.value!r}")
                # Not advanced past: what follows the brace is content.
                pos = cur.current.pos + 1
                content.append(Enclosed(tuple(exprs)))
            else:
                start = pos
                while pos < len(text) and text[pos] not in "<{":
                    pos += 1
                raw = text[start:pos]
                if raw.strip():
                    content.append(TextItem(raw))

    def _take_name(self, pos: int) -> tuple[str, int]:
        match = _NAME_RE.match(self.cursor.source, pos)
        if not match:
            raise self.cursor.error("expected a name", pos)
        return match.group(), match.end()

    def _expect_char(self, ch: str, pos: int) -> int:
        if not self.cursor.source.startswith(ch, pos):
            raise self.cursor.error(f"expected {ch!r}", pos)
        return pos + 1
