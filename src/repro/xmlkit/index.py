"""Tag-name index: per-tag, document-ordered element lists.

This is the access structure the join-based approaches assume
(Section 2.1): for each tag name, a list of region-labeled elements in
document order.  TwigStack consumes these lists directly
(:meth:`TagIndex.nodes`); the optimizer checks :meth:`TagIndex.has` to
decide whether a holistic join is applicable at all.

The index also demonstrates the *update problem* the paper attributes
to join-based evaluation: region labels are a materialization of
structural relationships, so an index serves one document version.
That version's index is ``doc.derived.index``, dropped with the rest of
the derived state by :meth:`Document.drop_derived`.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY
from repro.xmlkit.tree import Document, Node

__all__ = ["TagIndex"]

_BUILDS = REGISTRY.counter(
    "repro_tag_index_builds_total",
    "Tag-index materializations (full document passes); one document "
    "version should pay this at most once")


class TagIndex:
    """Per-tag inverted lists of elements, built in one document pass."""

    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self._lists: dict[str, list[Node]] = {}
        #: Whether the lists are materialized (what an update throws away).
        self.built = False

    def build(self) -> TagIndex:
        """Materialize all per-tag lists (idempotent)."""
        if not self.built:
            _BUILDS.inc()
            table: dict[str, list[Node]] = {}
            for node in self.doc.elements():
                table.setdefault(node.tag, []).append(node)  # type: ignore[arg-type]
            self._lists = table
            self.built = True
        return self

    def tags(self) -> list[str]:
        """The distinct element tag names, in first-occurrence order."""
        self.build()
        return list(self._lists)

    def has(self, tag: str) -> bool:
        """True iff at least one element with this tag exists."""
        self.build()
        return tag in self._lists

    def nodes(self, tag: str) -> list[Node]:
        """Document-ordered elements with the given tag (empty if none)."""
        self.build()
        return self._lists.get(tag, [])

    def cardinality(self, tag: str) -> int:
        """Number of elements with the given tag."""
        return len(self.nodes(tag))

