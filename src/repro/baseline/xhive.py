"""Simulated commercial navigational XML engine (the paper's "XH" column).

The paper benchmarks against X-Hive/DB 6.0, a closed-source native XML
database whose query processor is navigational: each location step
materializes an intermediate node set, deduplicates and sorts it, and
each predicate re-traverses the tree from its candidate node.  This
module reproduces that *architecture* (see DESIGN.md's substitution
table): the asymptotics — per-step node-set materialization, no
structural-join or holistic optimizations, no pipelining between steps
— are what drive X-Hive's relative performance in Table 3, so the
win/loss shape against PL/TS/NL is preserved even though absolute
times differ from the original product.

Work accounting: every candidate node the navigator examines counts as
a scanned node, and the work budget applies, so XH runs can DNF the
same way the other systems' runs do.
"""

from __future__ import annotations

from repro.errors import DNFError
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document
from repro.xpath.evaluator import XPathEvaluator
from repro.xquery.ast import QueryExpr
from repro.xquery.parser import parse_query
from repro.engine.construct import DirectEvaluator
from repro.engine.result import QueryResult

__all__ = ["XHiveSimulator"]


class XHiveSimulator:
    """Navigational engine stand-in.

    Parameters
    ----------
    doc:
        The document every path reads (``doc("uri")`` included).
    counters:
        Work counters; candidate-node examinations charge
        ``nodes_scanned`` and the budget is enforced.
    """

    def __init__(self, doc: Document,
                 counters: ScanCounters | None = None) -> None:
        self.doc = doc
        self.counters = counters if counters is not None else ScanCounters()

    def run(self, query: str | QueryExpr,
            bindings: dict | None = None) -> QueryResult:
        """Evaluate a query navigationally (paths and FLWOR alike).

        ``bindings`` supplies values for external ``$parameters``.
        """
        expr = parse_query(query) if isinstance(query, str) else query
        evaluator = DirectEvaluator(self.doc)
        # Swap in a counting XPath evaluator: every candidate node a
        # step examines is charged, which models the materialize-and-
        # filter execution of a navigational engine.
        evaluator.xpath = XPathEvaluator(count_work=self._charge)
        return QueryResult(evaluator.eval_query_expr(expr, dict(bindings or {})))

    def _charge(self, candidates: int) -> None:
        counters = self.counters
        counters.nodes_scanned += candidates
        if counters.budget is not None and counters.nodes_scanned > counters.budget:
            raise DNFError("navigational evaluation exceeded the work budget",
                           budget=counters.budget)
