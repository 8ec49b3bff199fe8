"""Tag-name index: per-tag, document-ordered element lists.

This is the access structure the join-based approaches assume
(Section 2.1): for each tag name, a list of region-labeled elements in
document order.  TwigStack consumes these lists directly
(:meth:`TagIndex.nodes`); the optimizer checks :meth:`TagIndex.has` to
decide whether a holistic join is applicable at all.

The index also carries the *update problem* the paper attributes to
join-based evaluation: region labels are a materialization of
structural relationships, so postings are a view an update must
maintain.  A version's index is ``doc.derived.index``.  An update
splices the inserted subtree's elements into each of their tags' lists,
or cuts the deleted ones out (:meth:`TagIndex.patched`), and a fork
maps the lists onto its clones (:meth:`TagIndex.remapped`); neither
walks the document.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

from repro.obs.metrics import REGISTRY
from repro.xmlkit.tree import ELEMENT, Document, Node

__all__ = ["TagIndex"]

_BUILDS = REGISTRY.counter(
    "repro_tag_index_builds_total",
    "Tag-index materializations (full document passes); a version "
    "whose predecessor had one maintains it instead")
_NID = attrgetter("nid")


class TagIndex:
    """Per-tag inverted lists of elements, built in one document pass."""

    def __init__(self, doc: Document,
                 lists: dict[str, list[Node]] | None = None) -> None:
        self.doc = doc
        self._lists: dict[str, list[Node]] = lists or {}
        #: Whether the lists are materialized (built or maintained).
        self.built = lists is not None

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

    def patched(self, run: list[Node], sign: int) -> TagIndex:
        """The postings after the pre-order ``run`` of one subtree was
        spliced in (``sign`` 1) or cut out (-1) and the tail relabeled.

        The run is contiguous in ``nid``, so each of its tags' elements
        form one block: bisected in at ``run[0].nid`` or cut out from
        there.  A cut run keeps its old ids, which every shifted tail
        node now reaches or passes, so the bisect still finds the block.
        Lists the run does not touch are shared.
        """
        blocks: dict[str, list[Node]] = {}
        for node in run:
            if node.kind == ELEMENT:
                blocks.setdefault(node.tag, []).append(node)  # type: ignore[arg-type]
        lists = dict(self._lists)
        first = run[0].nid
        for tag, block in blocks.items():
            old = lists.get(tag, [])
            at = bisect_left(old, first, key=_NID)
            if sign > 0:
                lists[tag] = old[:at] + block + old[at:]
            elif len(block) < len(old):
                lists[tag] = old[:at] + old[at + len(block):]
            else:
                del lists[tag]
        return TagIndex(self.doc, lists)

    def remapped(self, doc: Document, clones: list[Node]) -> TagIndex:
        """These postings over a copy of the document whose node
        ``nid`` is ``clones[nid]``."""
        return TagIndex(doc, {tag: [clones[node.nid] for node in nodes]
                              for tag, nodes in self._lists.items()})
