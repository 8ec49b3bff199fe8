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

The analyzer is purely syntactic — no document needed.  One traversal,
:func:`scope`, gathers every scoping fact of a query at once
(:class:`ScopeFacts`: names used, unbound references, duplicate
bindings); the external ``$parameters`` (:func:`free_variables`) and
the :class:`StaticReport` (:func:`analyze`) are two readings of it, and
the compiler takes both from a single walk.  Callers may raise
``report.raise_errors()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StaticError
from repro.xpath.ast import (
    Comparison,
    Expr,
    FunctionCall,
    LocationPath,
    NotExpr,
    Quantified,
    RootVariable,
    conjuncts,
    subexpressions,
    walk,
)
from repro.xquery.ast import ElementConstructor, FLWOR, QueryExpr, Sequence

__all__ = ["StaticReport", "Correlation", "ScopeFacts", "scope", "analyze",
           "free_variables"]


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
        return [_classify(conjunct) for conjunct in conjuncts(self.where)]

    def raise_errors(self, query: str = "") -> None:
        if self.errors:
            raise StaticError("; ".join(self.errors), query=query)


@dataclass
class ScopeFacts:
    """Everything one scoping walk over a query learns."""

    #: Every variable name referenced anywhere.
    used: set[str] = field(default_factory=set)
    #: Scoping violations in source order: ``("unbound", name)`` for a
    #: reference no enclosing clause or quantifier binds, ``("duplicate",
    #: name)`` for a for/let binding of an already bound name.
    issues: list[tuple[str, str]] = field(default_factory=list)

    @property
    def free(self) -> frozenset[str]:
        """The variables referenced but never bound — a query's external
        ``$parameters``, which a caller must supply at execution time."""
        return frozenset(name for kind, name in self.issues
                         if kind == "unbound")

    def report(self, flwor: FLWOR,
               external: frozenset[str] = frozenset()) -> StaticReport:
        """The findings as a report on ``flwor`` (the query walked, or
        the one FLWOR it wraps); references to ``external`` names are
        legal."""
        errors = [f"variable ${name} bound twice" if kind == "duplicate"
                  else f"reference to unbound variable ${name}"
                  for kind, name in self.issues
                  if kind == "duplicate" or name not in external]
        bound = list(dict.fromkeys(clause.var for clause in flwor.clauses))
        return StaticReport(errors, bound,
                            [v for v in bound if v not in self.used],
                            flwor.where)


def scope(expr: QueryExpr) -> ScopeFacts:
    """The one scoping walk: bound, used, free and duplicate-binding
    facts of a whole query, gathered together.  FLWOR clauses and
    quantifiers bind their own variables; everything else just refers."""
    facts = ScopeFacts()
    _scope_query(expr, [], facts)
    return facts


def analyze(flwor: FLWOR,
            external: frozenset[str] = frozenset()) -> StaticReport:
    """Statically analyze a FLWOR expression.

    ``external`` names variables bound outside the query — the external
    ``$parameters`` of a prepared query.  References to them are legal
    everywhere a bound variable is; everything else about the analysis
    (duplicate bindings, correlations) is unchanged.
    """
    return scope(flwor).report(flwor, external)


def free_variables(expr: QueryExpr) -> frozenset[str]:
    """All variables an expression references but does not bind."""
    return scope(expr).free


# ----------------------------------------------------------------------
# Traversal.
# ----------------------------------------------------------------------

def _scope_query(expr: QueryExpr, bound: list[str],
                 facts: ScopeFacts) -> None:
    if isinstance(expr, FLWOR):
        bound = list(bound)
        for clause in expr.clauses:
            _scope_expr(clause.source, bound, facts)
            if clause.var in bound:
                facts.issues.append(("duplicate", clause.var))
            else:
                bound.append(clause.var)
        if expr.where is not None:
            _scope_expr(expr.where, bound, facts)
        for spec in expr.order_by:
            _scope_expr(spec.key, bound, facts)
        _scope_query(expr.return_expr, bound, facts)
    elif isinstance(expr, (ElementConstructor, Sequence)):
        subs = (expr.exprs if isinstance(expr, Sequence)
                else expr.subqueries())
        for sub in subs:
            _scope_query(sub, bound, facts)
    else:
        _scope_expr(expr, bound, facts)


def _scope_expr(expr: Expr, bound: list[str], facts: ScopeFacts) -> None:
    if isinstance(expr, LocationPath) and isinstance(expr.root, RootVariable):
        name = expr.root.name
        facts.used.add(name)
        if name not in bound:
            facts.issues.append(("unbound", name))
    if isinstance(expr, Quantified):
        _scope_expr(expr.source, bound, facts)
        _scope_expr(expr.satisfies, bound + [expr.var], facts)
    else:
        for sub in subexpressions(expr):
            _scope_expr(sub, bound, facts)


# ----------------------------------------------------------------------
# Correlation classification.
# ----------------------------------------------------------------------

def _classify(conjunct: Expr) -> Correlation:
    variables = tuple(dict.fromkeys(
        node.root.name for node in walk(conjunct)
        if isinstance(node, LocationPath)
        and isinstance(node.root, RootVariable)))
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
