"""Document statistics.

The per-document quantities the paper reports in Table 1 (node count,
average/maximum depth, distinct-tag count, serialized size) plus the two
properties the optimizer needs:

* **recursiveness** — whether any element occurs as a descendant of a
  same-tag element (the paper's definition in Section 5.1), and
* **recursion degree** — the maximum number of same-tag elements on any
  root-to-leaf path, which bounds the memory a pipelined ``//``-join
  needs to cache (Section 4.2 / reference [3]).

They are aggregates of the structural summary's one loop over the
document (:func:`repro.xmlkit.summary.build_summary`); a document
version's copy is ``doc.derived.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xmlkit.writer import serialize
from repro.xmlkit.tree import Document

__all__ = ["DocumentStats", "compute_stats"]


@dataclass
class DocumentStats:
    """Summary statistics for one document (Table 1 row)."""

    n_nodes: int = 0            # element + text nodes (paper counts tree nodes)
    n_elements: int = 0
    n_text: int = 0
    avg_depth: float = 0.0      # mean element depth (root = 1)
    max_depth: int = 0
    n_distinct_tags: int = 0
    tag_histogram: dict[str, int] = field(default_factory=dict)
    recursive: bool = False
    recursion_degree: int = 1   # max same-tag count on a root-to-leaf path
    serialized_bytes: int = 0
    #: per-tag mean subtree size (nodes, self included) — the cost
    #: model's rescan-volume statistic for bounded nested loops.
    tag_subtree_avg: dict[str, float] = field(default_factory=dict)

    def avg_subtree_size(self, tag: str) -> float:
        """Mean subtree size of a tag (whole document for unknown tags)."""
        return self.tag_subtree_avg.get(tag, float(max(1, self.n_nodes)))

    def table1_row(self, name: str) -> dict[str, object]:
        """Render this summary in the shape of a Table 1 row."""
        return {
            "data set": name,
            "recursive?": "Y" if self.recursive else "N",
            "size (KB)": round(self.serialized_bytes / 1024, 1),
            "#nodes": self.n_nodes,
            "avg. dep.": round(self.avg_depth, 1),
            "max dep.": self.max_depth,
            "|tags|": self.n_distinct_tags,
        }


def compute_stats(doc: Document, with_size: bool = True) -> DocumentStats:
    """A fresh structural pass's statistics (``build_summary(doc).stats``),
    plus the serialized size unless ``with_size=False`` (serialization is
    the expensive part; Table 1 is its only reader)."""
    from repro.xmlkit.summary import build_summary  # summary imports this

    stats = build_summary(doc).stats
    if with_size and doc.root is not None:
        stats.serialized_bytes = len(serialize(doc.root).encode())
    return stats
