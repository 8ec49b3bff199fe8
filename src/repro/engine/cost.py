"""A cost model for physical-strategy selection (the paper's future work).

Section 6: "To choose an optimal plan automatically, the optimizer
needs a cost model or similar mechanism.  These will be topics of
future work."  This module supplies that mechanism in the paper's own
currency — *expected nodes touched*, the same unit the runtime
counters report — so the model's predictions are directly testable
against measurements.

Estimation rules (all per query, using the document statistics: tag
cardinalities are the structural pass's exact tag histogram, so pricing
a plan never materialises the tag index):

* **pipelined / stack merge** — one merged sequential scan of the
  document (``N`` nodes) plus a merge pass over each inter edge's two
  projected streams (bounded by tag cardinalities).  The strict
  pipelined variant is inapplicable (infinite cost) on recursive
  documents.
* **TwigStack** — the sum of the query vertices' tag-stream
  cardinalities (index I/O), infinite when the query is not a twig or
  a stream tag has no index.
* **BNLJ** — the scan plus, per inter edge, (outer cardinality) ×
  (average subtree size of the outer tag), the bounded rescan volume.
* **naive NL** — the scan plus (outer cardinality) × N per edge.
* **navigational (xhive)** — ``N`` per location step from the root,
  a coarse model of per-step re-traversal.

The model is deliberately simple — a handful of sufficient statistics,
no per-query sampling — and ``tests/test_bench_harness.py`` bounds
its *regret* over the Table-3 cells: how much more work the model's
pick does than the best strategy found by exhaustive measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pattern.blossom import BlossomTree
from repro.pattern.decompose import Decomposition, decompose
from repro.physical.twigstack import twig_supported
from repro.xmlkit.tree import Document
from repro.strategy import STRATEGIES

__all__ = ["CostEstimate", "CostModel"]

INFINITE = float("inf")


@dataclass(frozen=True)
class CostEstimate:
    """Predicted work for one strategy, with the model's reasoning."""

    strategy: str
    cost: float          # expected nodes touched; inf = inapplicable
    detail: str

    def __str__(self) -> str:
        cost = "inapplicable" if self.cost == INFINITE else f"{self.cost:,.0f}"
        return f"{self.strategy}: {cost} ({self.detail})"


class CostModel:
    """Ranks the physical strategies for one compiled query over
    ``doc``, reading its statistics (``doc.derived.stats``).
    """

    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self.stats = doc.derived.stats
        self.n_nodes = len(doc.nodes)

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def rank(self, tree: BlossomTree) -> list[CostEstimate]:
        """All applicable strategies, cheapest first."""
        dec = decompose(tree)
        estimates = [
            self._merge_joins(dec),
            self._twigstack(tree),
            self._bnlj(dec),
            self._naive_nl(dec),
            self._navigational(tree),
        ]
        return sorted(estimates, key=lambda e: e.cost)

    def choose(self, tree: BlossomTree) -> CostEstimate:
        """The model's pick (always applicable: navigational is finite)."""
        return self.rank(tree)[0]

    # ------------------------------------------------------------------
    # Per-operator estimators (EXPLAIN ANALYZE's "estimated" column).
    # ------------------------------------------------------------------

    def cardinality(self, tag: str) -> int:
        """Expected matches of a tag test (public for explain-analyze)."""
        return self._cardinality(tag)

    def scan_estimate(self) -> float:
        """Expected nodes touched by one (merged) sequential scan."""
        return float(self.n_nodes)

    def nok_estimate(self, root_tag: str) -> tuple[float, float]:
        """(expected nodes touched, expected output rows) of one NoK scan.

        The scan touches every node (the access method is a full
        sequential pass); the output cardinality estimate is the root
        tag's cardinality (1 for the document root) — predicates and
        mandatory children can only filter below that.
        """
        return self.scan_estimate(), float(self._cardinality(root_tag))

    def edge_estimate(self, parent_tag: str, child_tag: str,
                      algorithm: str) -> tuple[float, float]:
        """(expected nodes touched, expected output pairs) of one join.

        The per-edge term the whole-plan join estimators sum, so EXPLAIN
        ANALYZE can put the model's prediction next to each join's
        measured work.  What the join costs is read off the strategy
        row that pins it (a merge pass, or what it rescans per outer
        match).  Output pairs are estimated as the
        child cardinality: on tree-shaped data most descendants have one
        matching ancestor.
        """
        out_rows = float(self._cardinality(child_tag))
        row = STRATEGIES.get(algorithm)
        if parent_tag == "#root" or row is None or row.join is None:
            # vacuous / empty-input joins do no per-node work
            return 0.0, out_rows
        outer = self._cardinality(parent_tag)
        if row.rescans is None:     # a merge pass over both streams
            return float(outer + self._cardinality(child_tag)), out_rows
        return outer * (self._avg_subtree(parent_tag)
                        if row.rescans == "subtree"
                        else float(self.n_nodes)), out_rows

    # ------------------------------------------------------------------
    # Per-strategy estimators.
    # ------------------------------------------------------------------

    def _cardinality(self, tag: str) -> int:
        if tag == "#root":
            return 1
        if tag == "*":
            return max(1, self.stats.n_elements)
        return self.stats.tag_histogram.get(tag, 0)

    def _avg_subtree(self, tag: str) -> float:
        """Average subtree size of a tag's elements.

        Uses the exact per-tag statistic when the document statistics
        carry it (one extra dict in the single structural pass); otherwise
        falls back to a cardinality heuristic.  On recursive data the
        exact statistic already includes the nested rescan volume
        (nested same-tag subtrees are counted once per enclosing
        occurrence).
        """
        exact = self.stats.tag_subtree_avg.get(tag) if tag not in ("*", "#root") \
            else None
        if exact is not None:
            return exact
        card = max(1, self._cardinality(tag))
        base = min(self.n_nodes, 2.0 * self.n_nodes / card)
        if self.stats.recursive:
            base *= self.stats.recursion_degree
        return base

    def _joins(self, dec: Decomposition, algorithm: str,
               scan: float = 0.0) -> float:
        """``scan`` plus the :meth:`edge_estimate` cost of every
        ``//``-join of the plan under ``algorithm``."""
        return sum((self.edge_estimate(edge.parent.name, edge.child.name,
                                       algorithm)[0]
                    for edge in dec.inter_edges), scan)

    def _merge_joins(self, dec: Decomposition) -> CostEstimate:
        scan = self.n_nodes
        merge = int(self._joins(dec, "stack"))
        if self.stats.recursive:
            return CostEstimate(
                "stack", scan + merge,
                f"scan {scan} + stack merges {merge} "
                f"(recursive: strict pipelining unsound)")
        return CostEstimate(
            "pipelined", scan + merge,
            f"one merged scan {scan} + merge passes {merge}")

    def _twigstack(self, tree: BlossomTree) -> CostEstimate:
        if not twig_supported(tree):
            return CostEstimate("twigstack", INFINITE,
                                "query is not a single //-twig")
        streams = 0
        for vertex in tree.vertices:
            if vertex.name == "#root":
                continue
            streams += self._cardinality(vertex.name)
        return CostEstimate("twigstack", float(streams),
                            f"sum of tag-stream cardinalities {streams}")

    def _bnlj(self, dec: Decomposition) -> CostEstimate:
        return CostEstimate("bnlj", self._joins(dec, "bnlj", float(self.n_nodes)),
                            "scan + bounded per-outer subtree rescans")

    def _naive_nl(self, dec: Decomposition) -> CostEstimate:
        return CostEstimate("nl", self._joins(dec, "nl", float(self.n_nodes)),
                            "scan + full rescan per outer match")

    def _navigational(self, tree: BlossomTree) -> CostEstimate:
        # One traversal per tree edge from the root, a coarse stand-in
        # for per-step materialize-and-filter evaluation.
        steps = max(1, len(tree.tree_edges))
        cost = float(steps * self.n_nodes)
        return CostEstimate("xhive", cost, f"{steps} steps x {self.n_nodes} nodes")
