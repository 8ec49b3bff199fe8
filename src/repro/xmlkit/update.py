"""Document updates — the paper's Section 2.1 update-problem, executable.

The paper argues that the join-based approach "inherits the update
problem associated with materialized views": region labels are a
materialization of structural relationships, so inserting or deleting
one element invalidates the encodings of whole document regions and the
tag-name indexes built over them, while the navigational/hybrid
approach discovers structure dynamically and pays nothing.

This module provides subtree insertion and deletion over the tree
model, with exact accounting of the relabeling work:

* ``insert_subtree`` / ``delete_subtree`` splice a subtree in or out,
  rebuild the node arena, and reassign pre-order ranks and region
  labels from the update point onward;
* before the splice, constructed results that still read this document
  by reference are copied out (:meth:`Document.materialise_readers`);
* each operation returns an :class:`UpdateReport` with the number of
  nodes whose labels changed — the quantity the update-cost ablation
  measures — and drops everything derived from the old version
  (:meth:`Document.drop_derived`: statistics, summary, tag index, arena
  file), so no holder can read a stale view and none has to be told.

The implementation recomputes labels with a single pass from the
splice point (labels before it are provably unchanged), which is the
best a region-encoding scheme can do without gaps; the point of the
ablation is precisely that this cost is linear in the document tail
while navigational evaluation needs no maintenance at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UpdateError
from repro.xmlkit.tree import DOCUMENT, ELEMENT, Document, DocumentBuilder, Node

__all__ = ["UpdateReport", "DocumentUpdater", "UpdateError"]


@dataclass
class UpdateReport:
    """Accounting for one update operation."""

    nodes_added: int = 0
    nodes_removed: int = 0
    nodes_relabeled: int = 0      # existing nodes whose (nid/start/end) changed
    #: 1 when the replaced version had materialised its tag index (a
    #: join-based query must rebuild it), else 0.
    indexes_invalidated: int = 0


class DocumentUpdater:
    """Applies structural updates to a document, maintaining labels.

    Every update drops the document's derived state; its tag index must
    be rebuilt before the next join-based query — the materialized-view
    maintenance cost.
    """

    def __init__(self, doc: Document) -> None:
        self.doc = doc

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def insert_subtree(self, parent: Node, subtree_root: Node,
                       position: int | None = None) -> UpdateReport:
        """Insert a (detached or foreign) subtree under ``parent``.

        ``position`` is the child index (default: append).  The subtree
        is deep-copied into this document; the source is not modified.
        """
        if parent.doc is not self.doc:
            raise UpdateError("parent node belongs to a different document")
        if parent.kind not in (ELEMENT, DOCUMENT):
            raise UpdateError("can only insert under an element")
        if parent.kind == DOCUMENT and subtree_root.kind == ELEMENT \
                and self.doc.root is not None:
            raise UpdateError("document already has a root element")

        holder = DocumentBuilder()
        holder.start_element("")
        holder.append(subtree_root)
        holder.end_element()
        (copied,) = holder.finish().nodes[1].children
        index = len(parent.children) if position is None else position
        if not 0 <= index <= len(parent.children):
            raise UpdateError(f"child position {position} out of range")
        self.doc.materialise_readers()
        parent.children.insert(index, copied)
        copied.parent = parent

        report = UpdateReport(nodes_added=copied.subtree_size())
        self._rebuild(report, first_dirty=parent)
        return report

    def delete_subtree(self, node: Node) -> UpdateReport:
        """Remove ``node`` and its whole subtree from the document."""
        if node.doc is not self.doc:
            raise UpdateError("node belongs to a different document")
        if node.parent is None:
            raise UpdateError("cannot delete the document node")
        if node is self.doc.root:
            raise UpdateError("cannot delete the document element")
        self.doc.materialise_readers()
        node.parent.children.remove(node)

        report = UpdateReport(nodes_removed=node.subtree_size())
        self._rebuild(report, first_dirty=node.parent)
        return report

    # ------------------------------------------------------------------
    # Label maintenance.
    # ------------------------------------------------------------------

    def _rebuild(self, report: UpdateReport, first_dirty: Node) -> None:
        """Recompute nids, regions and levels; count changed labels.

        Everything strictly before the splice point in document order
        keeps its labels; the splice point's ancestors keep ``start``
        but change ``end`` — all of that falls out of one full pass
        that simply compares old and new values.
        """
        doc = self.doc
        old_labels = {id(n): (n.nid, n.start, n.end) for n in doc.nodes}

        nodes: list[Node] = []
        counter = 0

        def visit(node: Node, level: int) -> None:
            nonlocal counter
            node.nid = len(nodes)
            node.doc = doc
            node.level = level
            node.start = counter
            counter += 1
            nodes.append(node)
            node._string_value = None
            for child in node.children:
                visit(child, level + 1)
            node.end = counter
            counter += 1

        visit(doc.nodes[0], 0)
        doc.nodes = nodes
        doc.root = next((c for c in nodes[0].children if c.kind == ELEMENT), None)
        report.indexes_invalidated = int(doc.drop_derived())

        for node in nodes:
            old = old_labels.get(id(node))
            if old is not None and old != (node.nid, node.start, node.end):
                report.nodes_relabeled += 1
