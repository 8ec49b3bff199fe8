"""Abstract syntax for the restricted FLWOR subset (paper Section 3.1).

The grammar the paper evaluates::

    FLWOR ::= ( 'for' Var 'in' Path | 'let' Var ':=' Path )+
              ('where' Boolean)?
              ('order by' Path)?
              'return' Return

We additionally support the constructs Example 1 needs: direct element
constructors with enclosed expressions (``<tag>{ expr }</tag>``) in the
return clause and around a whole FLWOR, and comma-separated sequences
inside enclosed expressions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.xpath.ast import Expr, LocationPath

__all__ = [
    "ForClause",
    "LetClause",
    "OrderSpec",
    "FLWOR",
    "TextItem",
    "Enclosed",
    "ElementConstructor",
    "Sequence",
    "QueryExpr",
    "emitted_leaves",
    "locate_flwor",
]


@dataclass(frozen=True)
class ForClause:
    """``for $var in <path>`` — iterates item by item (mode "f")."""

    var: str
    source: LocationPath

    def __str__(self) -> str:
        return f"for ${self.var} in {self.source}"


@dataclass(frozen=True)
class LetClause:
    """``let $var := <path>`` — binds the whole sequence (mode "l")."""

    var: str
    source: LocationPath

    def __str__(self) -> str:
        return f"let ${self.var} := {self.source}"


@dataclass(frozen=True)
class OrderSpec:
    """One ``order by`` key."""

    key: Expr
    descending: bool = False

    def __str__(self) -> str:
        suffix = " descending" if self.descending else ""
        return f"{self.key}{suffix}"


@dataclass(frozen=True)
class TextItem:
    """Literal character content inside an element constructor."""

    text: str


@dataclass(frozen=True)
class Enclosed:
    """``{ expr, expr, ... }`` inside a constructor."""

    exprs: tuple[QueryExpr, ...]


@dataclass(frozen=True)
class ElementConstructor:
    """A direct element constructor.

    ``attrs`` maps attribute names to literal strings (attribute value
    templates with enclosed expressions are outside the paper's subset).
    ``content`` is the ordered mix of text, nested constructors and
    enclosed expressions.
    """

    tag: str
    attrs: tuple[tuple[str, str], ...] = ()
    content: tuple[TextItem | ElementConstructor | Enclosed, ...] = ()

    def subqueries(self) -> Iterator[QueryExpr]:
        """The query expressions inside, in order: every enclosed
        expression and every directly nested constructor."""
        for item in self.content:
            if isinstance(item, Enclosed):
                yield from item.exprs
            elif isinstance(item, ElementConstructor):
                yield item

    def __str__(self) -> str:
        attrs = "".join(f' {k}="{v}"' for k, v in self.attrs)
        return f"<{self.tag}{attrs}>...</{self.tag}>"


@dataclass(frozen=True)
class Sequence:
    """Comma-separated expression sequence."""

    exprs: tuple[QueryExpr, ...]


@dataclass(frozen=True)
class FLWOR:
    """A restricted FLWOR expression."""

    clauses: tuple[ForClause | LetClause, ...]
    where: Expr | None = None
    order_by: tuple[OrderSpec, ...] = ()
    return_expr: QueryExpr = None  # type: ignore[assignment]

    def for_clauses(self) -> list[ForClause]:
        return [c for c in self.clauses if isinstance(c, ForClause)]

    def let_clauses(self) -> list[LetClause]:
        return [c for c in self.clauses if isinstance(c, LetClause)]

    def __str__(self) -> str:
        parts = [str(c) for c in self.clauses]
        if self.where is not None:
            parts.append(f"where {self.where}")
        if self.order_by:
            parts.append("order by " + ", ".join(str(s) for s in self.order_by))
        parts.append("return ...")
        return "\n".join(parts)


#: Anything that can appear where the XQuery grammar expects one expression.
QueryExpr = FLWOR | ElementConstructor | Sequence | Expr


def locate_flwor(expr: QueryExpr) -> FLWOR | None:
    """The one FLWOR a query is built around: the query itself, or the
    only FLWOR enclosed in its (possibly nested) constructors.

    ``None`` — a query with no FLWOR, or with several — means "nothing
    to optimize" to the compiler (direct evaluation), not an error.
    """
    if isinstance(expr, FLWOR):
        return expr
    if not isinstance(expr, ElementConstructor):
        return None
    found: FLWOR | None = None
    for sub in expr.subqueries():
        inner = locate_flwor(sub)
        if inner is not None:
            if found is not None:
                return None
            found = inner
    return found


def emitted_leaves(expr: QueryExpr) -> Iterator[QueryExpr]:
    """The expressions a return clause emits, in order: ``expr`` itself,
    or — through sequences and constructors — each expression inside
    that is neither (an XPath expression or a nested FLWOR)."""
    if isinstance(expr, Sequence):
        for sub in expr.exprs:
            yield from emitted_leaves(sub)
    elif isinstance(expr, ElementConstructor):
        for sub in expr.subqueries():
            yield from emitted_leaves(sub)
    else:
        yield expr
