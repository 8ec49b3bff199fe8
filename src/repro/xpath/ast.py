"""Abstract syntax for the XPath subset.

The grammar covers what the paper's queries and FLWOR subset need:

* the axes ``child`` (``/``), ``descendant`` (``//``), ``self`` (``.``),
  ``parent`` (``..``), ``attribute`` (``@``), ``following-sibling``,
  ``ancestor``, ``preceding`` and ``following``;
* name tests (including ``*``), ``text()`` and ``node()`` kind tests;
* predicates with boolean connectives, value comparisons, positional
  predicates, and a small function library (``position``, ``last``,
  ``count``, ``contains``, ``not``, ``deep-equal``, ``empty``,
  ``exists``, ``string``, ``number``);
* path roots: absolute (``/...``, ``//...``), ``doc("uri")``, and
  variable references (``$x/...``) for paths embedded in FLWOR clauses.

One deliberate deviation from W3C XPath, matching the paper's usage in
Appendix A: a path *inside a predicate* is evaluated relative to the
context node, so ``//address[//zip]`` selects addresses with a ``zip``
descendant (W3C would restart at the document root).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal

__all__ = [
    "AXIS_NAMES",
    "LOCAL_AXES",
    "GLOBAL_AXES",
    "NameTest",
    "TextTest",
    "NodeTest",
    "AnyKindTest",
    "Step",
    "LocationPath",
    "RootDoc",
    "RootContext",
    "RootVariable",
    "PathRoot",
    "Literal",
    "NumberLiteral",
    "FunctionCall",
    "Comparison",
    "BooleanExpr",
    "NotExpr",
    "Arithmetic",
    "Quantified",
    "Conditional",
    "Expr",
    "subexpressions",
    "walk",
    "conjuncts",
    "mentions_variable",
]

#: All axes the parser accepts.
AXIS_NAMES = frozenset({
    "child", "descendant", "descendant-or-self", "self", "parent",
    "attribute", "following-sibling", "ancestor", "preceding", "following",
})

#: Axes a NoK pattern tree may contain (Section 2.1: only ``/`` and
#: ``following-sibling`` are "local"; ``self`` is trivially local too).
LOCAL_AXES = frozenset({"child", "self", "following-sibling", "attribute"})

#: Axes that force an edge cut during BlossomTree decomposition.
GLOBAL_AXES = frozenset(AXIS_NAMES) - LOCAL_AXES


@dataclass(frozen=True)
class NameTest:
    """Match elements (or attributes) by name; ``*`` matches any name."""

    name: str

    def matches_tag(self, tag: str | None) -> bool:
        return tag is not None and (self.name == "*" or self.name == tag)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TextTest:
    """``text()`` kind test."""

    def __str__(self) -> str:
        return "text()"


@dataclass(frozen=True)
class AnyKindTest:
    """``node()`` kind test."""

    def __str__(self) -> str:
        return "node()"


NodeTest = NameTest | TextTest | AnyKindTest


@dataclass(frozen=True)
class Step:
    """One location step: ``axis::test[pred1][pred2]...``."""

    axis: str
    test: NodeTest
    predicates: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        if self.axis == "child":
            return f"{self.test}{preds}"
        if self.axis == "attribute":
            return f"@{self.test}{preds}"
        return f"{self.axis}::{self.test}{preds}"


@dataclass(frozen=True)
class RootDoc:
    """Path root ``doc("uri")`` — the named document's root."""

    uri: str

    def __str__(self) -> str:
        return f"doc({_quoted(self.uri)})"


@dataclass(frozen=True)
class RootContext:
    """Path root for absolute paths (``/`` or ``//``): the document node.

    For *relative* paths the root is also ``RootContext`` but with
    ``absolute=False``, meaning "start at the context node".
    """

    absolute: bool = True

    def __str__(self) -> str:
        return "" if self.absolute else "."


@dataclass(frozen=True)
class RootVariable:
    """Path root ``$name`` — a FLWOR variable binding."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


PathRoot = RootDoc | RootContext | RootVariable


@dataclass(frozen=True)
class LocationPath:
    """A rooted sequence of steps."""

    root: PathRoot
    steps: tuple[Step, ...] = ()

    def is_absolute(self) -> bool:
        return isinstance(self.root, RootContext) and self.root.absolute

    def __str__(self) -> str:
        parts: list[str] = []
        head = str(self.root)
        if head == "." and self.steps:
            head = ""  # leading "." before steps would not re-parse stably
        if head:
            parts.append(head)
        for step in self.steps:
            sep = "//" if step.axis in ("descendant", "descendant-or-self") else "/"
            # Axes written explicitly keep the single-slash separator.
            if step.axis not in ("child", "descendant", "attribute"):
                sep = "/"
            parts.append(f"{sep}{_strip_axis_for_display(step)}")
        text = "".join(parts)
        return text or ("/" if self.is_absolute() else ".")


def _strip_axis_for_display(step: Step) -> str:
    preds = "".join(f"[{p}]" for p in step.predicates)
    if step.axis in ("child", "descendant"):
        return f"{step.test}{preds}"
    if step.axis == "attribute":
        return f"@{step.test}{preds}"
    return f"{step.axis}::{step.test}{preds}"


@dataclass(frozen=True)
class Literal:
    """A quoted string literal."""

    value: str

    def __str__(self) -> str:
        return _quoted(self.value)


@dataclass(frozen=True)
class NumberLiteral:
    """A numeric literal.  In predicate position an integer means
    ``position() = n``."""

    value: float

    def __str__(self) -> str:
        if math.isfinite(self.value) and self.value == int(self.value):
            return str(int(self.value))
        text = repr(self.value)
        # The lexer has no exponent form: spell 1e-07 out positionally.
        return format(Decimal(text), "f") if "e" in text else text


@dataclass(frozen=True)
class FunctionCall:
    """A call to one of the supported functions."""

    name: str
    args: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Comparison:
    """Binary comparison: value ops ``= != < <= > >=`` or node-order ops
    ``<<``, ``>>``, ``is``, ``isnot``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return (f"{_operand(self.left, _COMPARISON)} {self.op} "
                f"{_operand(self.right, _COMPARISON)}")


@dataclass(frozen=True)
class BooleanExpr:
    """N-ary ``and`` / ``or``."""

    op: str  # "and" | "or"
    operands: tuple[Expr, ...]

    def __str__(self) -> str:
        return f" {self.op} ".join(_operand(o, _BOOLEAN) for o in self.operands)


@dataclass(frozen=True)
class NotExpr:
    """``not(expr)`` — kept distinct from FunctionCall because the
    BlossomTree builder treats negated comparisons specially."""

    operand: Expr

    def __str__(self) -> str:
        return f"not({self.operand})"


@dataclass(frozen=True)
class Arithmetic:
    """Binary arithmetic: ``+ - * div mod`` (numeric, XPath 1.0 style)."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        # Left-associative: an equal-precedence operand needs its
        # parentheses on the right only.
        level = _precedence(self)
        return (f"{_operand(self.left, level - 1)} {self.op} "
                f"{_operand(self.right, level)}")


@dataclass(frozen=True)
class Quantified:
    """``some $v in path satisfies expr`` / ``every $v in path satisfies expr``.

    Part of the XQuery surface beyond the paper's core grammar (its
    Section-6 future work); usable anywhere an expression is (where
    clauses, predicates).  The engine treats quantifiers as residual
    conditions, re-verified per tuple.
    """

    kind: str  # "some" | "every"
    var: str
    source: Expr
    satisfies: Expr

    def __str__(self) -> str:
        return f"{self.kind} ${self.var} in {self.source} satisfies {self.satisfies}"


@dataclass(frozen=True)
class Conditional:
    """``if (cond) then expr else expr``."""

    condition: Expr
    then_branch: Expr
    else_branch: Expr

    def __str__(self) -> str:
        return (f"if ({self.condition}) then {self.then_branch} "
                f"else {self.else_branch}")


Expr = (LocationPath | Literal | NumberLiteral | FunctionCall | Comparison
        | BooleanExpr | NotExpr | Arithmetic | Quantified | Conditional)


# ----------------------------------------------------------------------
# Printing: str(expr) re-parses to an equal expression.
# ----------------------------------------------------------------------

#: Binding strength of the operator forms, loosest first; everything
#: else (paths, literals, calls, ``not(...)``) is a primary.
_LOOSEST, _BOOLEAN, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE, _PRIMARY = range(6)


def _precedence(expr: Expr) -> int:
    if isinstance(expr, Arithmetic):
        return _ADDITIVE if expr.op in "+-" else _MULTIPLICATIVE
    if isinstance(expr, Comparison):
        return _COMPARISON
    if isinstance(expr, BooleanExpr):
        return _BOOLEAN
    if isinstance(expr, (Quantified, Conditional)):
        return _LOOSEST
    return _PRIMARY


def _operand(expr: Expr, level: int) -> str:
    """``expr`` as an operand of an operator binding at ``level``:
    parenthesised unless it binds tighter."""
    return str(expr) if _precedence(expr) > level else f"({expr})"


def _quoted(value: str) -> str:
    """A string literal in the quote it does not contain (the lexer
    has no escapes, so a value holding both kinds cannot be written)."""
    return f"'{value}'" if '"' in value else f'"{value}"'


# ----------------------------------------------------------------------
# Traversal: the one child iterator and the one ``and``-flattener.
# ----------------------------------------------------------------------

def subexpressions(expr: Expr) -> Sequence[Expr]:
    """The direct sub-expressions of ``expr`` in source order — a path's
    are the predicates of its steps."""
    if isinstance(expr, LocationPath):
        return [p for step in expr.steps for p in step.predicates]
    if isinstance(expr, (Comparison, Arithmetic)):
        return (expr.left, expr.right)
    if isinstance(expr, BooleanExpr):
        return expr.operands
    if isinstance(expr, NotExpr):
        return (expr.operand,)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, Quantified):
        return (expr.source, expr.satisfies)
    if isinstance(expr, Conditional):
        return (expr.condition, expr.then_branch, expr.else_branch)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every expression below it, in source (pre-)order."""
    yield expr
    for sub in subexpressions(expr):
        yield from walk(sub)


def conjuncts(expr: Expr) -> list[Expr]:
    """The operands of the top-level ``and`` (nested ``and``s flattened);
    anything else is its own single conjunct."""
    if isinstance(expr, BooleanExpr) and expr.op == "and":
        return [c for operand in expr.operands for c in conjuncts(operand)]
    return [expr]


def mentions_variable(expr: Expr) -> bool:
    """Any variable reference at all — a quantifier's own included."""
    return any(isinstance(node, LocationPath)
               and isinstance(node.root, RootVariable) for node in walk(expr))
