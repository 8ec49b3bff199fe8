"""Static semantic analysis of FLWOR expressions.

Catches, *before* any evaluation starts, the errors that would
otherwise surface as mid-query execution failures:

* references to unbound variables (in clause sources, where, order by
  and return — including inside nested constructors and quantifiers);
* duplicate variable bindings (the restricted grammar has no variable
  shadowing);
* correlation analysis: which variables each where-conjunct connects —
  the same classification the BlossomTree builder uses to place
  crossing edges, exposed here for tooling (``Engine.explain`` shows it).

The analyzer is purely syntactic — no document needed — and returns a
:class:`StaticReport`; callers may raise ``report.raise_errors()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StaticError
from repro.xpath.ast import (
    Arithmetic,
    BooleanExpr,
    Comparison,
    Conditional,
    Expr,
    FunctionCall,
    LocationPath,
    NotExpr,
    Quantified,
    RootVariable,
)
from repro.xquery.ast import (
    ElementConstructor,
    Enclosed,
    FLWOR,
    QueryExpr,
    Sequence,
    TextItem,
)

__all__ = ["StaticReport", "Correlation", "analyze", "free_variables"]


@dataclass(frozen=True)
class Correlation:
    """One where-conjunct's variable footprint."""

    variables: tuple[str, ...]
    relation: str       # "<<", "=", "deep-equal", "other", ...
    description: str

    @property
    def is_join(self) -> bool:
        """Connects two or more variables — a crossing-edge candidate."""
        return len(self.variables) >= 2


@dataclass
class StaticReport:
    """The analyzer's findings."""

    errors: list[str] = field(default_factory=list)
    bound_variables: list[str] = field(default_factory=list)
    unused_variables: list[str] = field(default_factory=list)
    #: The analyzed FLWOR's where clause, kept for :attr:`correlations`.
    where: Expr | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def correlations(self) -> list[Correlation]:
        """Each where-conjunct's variable footprint — classified on
        demand: every compile builds a report, only tooling
        (``Engine.explain``) reads this."""
        if self.where is None:
            return []
        return [_classify(conjunct) for conjunct in _conjuncts(self.where)]

    def raise_errors(self, query: str = "") -> None:
        if self.errors:
            raise StaticError("; ".join(self.errors), query=query)


def analyze(flwor: FLWOR,
            external: frozenset[str] = frozenset()) -> StaticReport:
    """Statically analyze a FLWOR expression.

    ``external`` names variables bound outside the query — the external
    ``$parameters`` of a prepared query.  References to them are legal
    everywhere a bound variable is; everything else about the analysis
    (duplicate bindings, correlations) is unchanged.
    """
    report = StaticReport()
    bound: list[str] = []
    used: set[str] = set()

    for clause in flwor.clauses:
        _check_expr(clause.source, bound, used, report, external)
        if clause.var in bound:
            report.errors.append(f"variable ${clause.var} bound twice")
        else:
            bound.append(clause.var)

    if flwor.where is not None:
        _check_expr(flwor.where, bound, used, report, external)
        report.where = flwor.where
    for spec in flwor.order_by:
        _check_expr(spec.key, bound, used, report, external)
    _check_query_expr(flwor.return_expr, bound, used, report, external)

    report.bound_variables = list(bound)
    report.unused_variables = [v for v in bound if v not in used]
    return report


def free_variables(expr: QueryExpr) -> frozenset[str]:
    """All variables an expression references but does not bind.

    These are a query's external ``$parameters``: the names a caller
    must supply bindings for at execution time.  FLWOR clauses and
    quantifiers bind their own variables; everything else just refers.
    """
    report = StaticReport()
    used: set[str] = set()
    _check_query_expr(expr, [], used, report, frozenset())
    prefix = "reference to unbound variable $"
    return frozenset(e[len(prefix):] for e in report.errors
                     if e.startswith(prefix))


# ----------------------------------------------------------------------
# Traversal.
# ----------------------------------------------------------------------

def _check_query_expr(expr: QueryExpr, bound: list[str], used: set[str],
                      report: StaticReport,
                      external: frozenset[str] = frozenset()) -> None:
    if isinstance(expr, FLWOR):
        inner_bound = list(bound)
        for clause in expr.clauses:
            _check_expr(clause.source, inner_bound, used, report, external)
            if clause.var in inner_bound:
                report.errors.append(f"variable ${clause.var} bound twice")
            else:
                inner_bound.append(clause.var)
        if expr.where is not None:
            _check_expr(expr.where, inner_bound, used, report, external)
        for spec in expr.order_by:
            _check_expr(spec.key, inner_bound, used, report, external)
        _check_query_expr(expr.return_expr, inner_bound, used, report, external)
        return
    if isinstance(expr, ElementConstructor):
        for item in expr.content:
            if isinstance(item, TextItem):
                continue
            if isinstance(item, Enclosed):
                for sub in item.exprs:
                    _check_query_expr(sub, bound, used, report, external)
            else:
                _check_query_expr(item, bound, used, report, external)
        return
    if isinstance(expr, Sequence):
        for sub in expr.exprs:
            _check_query_expr(sub, bound, used, report, external)
        return
    _check_expr(expr, bound, used, report, external)


def _check_expr(expr: Expr, bound: list[str], used: set[str],
                report: StaticReport,
                external: frozenset[str] = frozenset()) -> None:
    if isinstance(expr, LocationPath):
        if isinstance(expr.root, RootVariable):
            name = expr.root.name
            used.add(name)
            if name not in bound and name not in external:
                report.errors.append(f"reference to unbound variable ${name}")
        for step in expr.steps:
            for predicate in step.predicates:
                _check_expr(predicate, bound, used, report, external)
        return
    if isinstance(expr, (Comparison, Arithmetic)):
        _check_expr(expr.left, bound, used, report, external)
        _check_expr(expr.right, bound, used, report, external)
        return
    if isinstance(expr, (BooleanExpr,)):
        for operand in expr.operands:
            _check_expr(operand, bound, used, report, external)
        return
    if isinstance(expr, NotExpr):
        _check_expr(expr.operand, bound, used, report, external)
        return
    if isinstance(expr, FunctionCall):
        for arg in expr.args:
            _check_expr(arg, bound, used, report, external)
        return
    if isinstance(expr, Quantified):
        _check_expr(expr.source, bound, used, report, external)
        inner = bound + [expr.var]
        _check_expr(expr.satisfies, inner, used, report, external)
        return
    if isinstance(expr, Conditional):
        for sub in (expr.condition, expr.then_branch, expr.else_branch):
            _check_expr(sub, bound, used, report, external)
        return
    # literals: nothing to check


# ----------------------------------------------------------------------
# Correlation classification.
# ----------------------------------------------------------------------

def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BooleanExpr) and expr.op == "and":
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(_conjuncts(operand))
        return out
    return [expr]


def _variables_of(expr: Expr) -> tuple[str, ...]:
    found: list[str] = []

    def visit(node: Expr) -> None:
        if isinstance(node, LocationPath):
            if isinstance(node.root, RootVariable) and \
                    node.root.name not in found:
                found.append(node.root.name)
            for step in node.steps:
                for predicate in step.predicates:
                    visit(predicate)
        elif isinstance(node, (Comparison, Arithmetic)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, BooleanExpr):
            for operand in node.operands:
                visit(operand)
        elif isinstance(node, NotExpr):
            visit(node.operand)
        elif isinstance(node, FunctionCall):
            for arg in node.args:
                visit(arg)
        elif isinstance(node, Quantified):
            visit(node.source)
            visit(node.satisfies)
        elif isinstance(node, Conditional):
            visit(node.condition)
            visit(node.then_branch)
            visit(node.else_branch)

    visit(expr)
    return tuple(found)


def _classify(conjunct: Expr) -> Correlation:
    variables = _variables_of(conjunct)
    inner = conjunct
    while isinstance(inner, NotExpr):
        inner = inner.operand
    if isinstance(inner, FunctionCall) and inner.name == "not" and inner.args:
        inner = inner.args[0]
    if isinstance(inner, Comparison):
        relation = inner.op
    elif isinstance(inner, FunctionCall) and inner.name == "deep-equal":
        relation = "deep-equal"
    else:
        relation = "other"
    return Correlation(variables, relation, str(conjunct))
