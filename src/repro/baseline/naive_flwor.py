"""The straightforward FLWOR interpreter — the paper's strawman and our oracle.

Section 1 of the paper describes the naive strategy: "follow the
semantics of FLWOR expression and evaluate the path expressions for
each iteration in the for-loop".  :class:`NaiveInterpreter` does
exactly that — nested loops that re-evaluate every correlated clause
path (one naming a variable) per iteration of the enclosing loops, a
where check per tuple, order-by over the surviving tuples, and
return-clause construction per tuple.  A clause path naming no
variable has one value per run, so it is evaluated once.

This is deliberately redundant — that redundancy is what BlossomTree
evaluation removes — but it is *obviously correct*, which makes it the
differential-testing oracle for the whole engine and the performance
strawman the Section 1 motivation refers to.

All of the actual evaluation machinery lives in
:mod:`repro.engine.construct`; the BlossomTree executor shares it, so
the two engines can only disagree about tuple enumeration, never about
construction or comparison semantics.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.xmlkit.tree import Document
from repro.xquery.ast import QueryExpr
from repro.xquery.parser import parse_query
from repro.engine.construct import DirectEvaluator
from repro.engine.result import QueryResult

__all__ = ["NaiveInterpreter"]


class NaiveInterpreter:
    """Direct-semantics evaluator for the restricted XQuery subset.

    Parameters
    ----------
    doc:
        The default document; ``doc("uri")`` calls resolve to it unless
        ``resolve_doc`` is supplied.
    resolve_doc:
        Optional URI-to-document mapping for multi-document queries.
    work_budget:
        Optional cap on examined for-loop tuples; exceeding it raises
        :class:`~repro.errors.DNFError`, which the benchmark harness
        reports as a ``DNF`` entry (the paper's 15-minute timeouts).
    """

    def __init__(self, doc: Document,
                 resolve_doc: Callable[[str], Document] | None = None,
                 work_budget: int | None = None) -> None:
        self.doc = doc
        self.resolve_doc = resolve_doc
        self.work_budget = work_budget

    def run(self, query: str | QueryExpr) -> QueryResult:
        """Evaluate a query string or parsed query to a result sequence."""
        expr = parse_query(query) if isinstance(query, str) else query
        evaluator = DirectEvaluator(self.doc, self.resolve_doc, self.work_budget)
        return QueryResult(evaluator.eval_query_expr(expr, {}))
