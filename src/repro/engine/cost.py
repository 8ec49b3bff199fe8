"""Per-operator work estimates for ``explain_analyze``.

Section 6 leaves cost-based plan choice to future work; the chooser
(:mod:`repro.engine.optimizer`) follows the Section-5.2 rules instead.
What remains of a cost model is EXPLAIN ANALYZE's "estimated" column,
in the paper's own currency — *expected nodes touched*, the unit the
runtime counters report — so each operator's prediction sits next to
its measurement:

* **NoK scan** — one sequential pass over the document (``N`` nodes),
  yielding at most the root tag's cardinality;
* **``//``-join** — a merge pass over both tag streams, or, for a
  nested-loop join, the outer cardinality times what it rescans per
  outer match (the outer tag's average subtree, or the document).

Tag cardinalities are the structural pass's exact tag histogram and
subtree sizes its per-tag averages, so estimating never materialises
the tag index.
"""

from __future__ import annotations

from repro.xmlkit.tree import Document
from repro.strategy import STRATEGIES

__all__ = ["CostModel"]


class CostModel:
    """Estimates one operator's work over ``doc``, reading its
    statistics (``doc.derived.stats``)."""

    def __init__(self, doc: Document) -> None:
        self.stats = doc.derived.stats
        self.n_nodes = len(doc.nodes)

    def cardinality(self, tag: str) -> int:
        """Expected matches of a tag test."""
        if tag == "#root":
            return 1
        if tag == "*":
            return max(1, self.stats.n_elements)
        return self.stats.tag_histogram.get(tag, 0)

    def nok_estimate(self, root_tag: str) -> tuple[float, float]:
        """(expected nodes touched, expected output rows) of one NoK scan.

        The scan touches every node (the access method is a full
        sequential pass); the output cardinality estimate is the root
        tag's cardinality (1 for the document root) — predicates and
        mandatory children can only filter below that.
        """
        return float(self.n_nodes), float(self.cardinality(root_tag))

    def edge_estimate(self, parent_tag: str, child_tag: str,
                      algorithm: str) -> tuple[float, float]:
        """(expected nodes touched, expected output pairs) of one join.

        What the join costs is read off the strategy row that pins it
        (a merge pass, or what it rescans per outer match).  Output
        pairs are estimated as the child cardinality: on tree-shaped
        data most descendants have one matching ancestor.
        """
        out_rows = float(self.cardinality(child_tag))
        row = STRATEGIES.get(algorithm)
        if parent_tag == "#root" or row is None or row.join is None:
            # vacuous / empty-input joins do no per-node work
            return 0.0, out_rows
        outer = self.cardinality(parent_tag)
        if row.rescans is None:     # a merge pass over both streams
            return float(outer + self.cardinality(child_tag)), out_rows
        return outer * (self.stats.avg_subtree_size(parent_tag)
                        if row.rescans == "subtree"
                        else float(self.n_nodes)), out_rows
