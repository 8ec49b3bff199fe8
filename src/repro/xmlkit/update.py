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

        The pass is a pre-order walk with an explicit stack (any depth).
        The region counter steps once entering and once leaving a node,
        so a node entered after ``nid`` entries and ``nid - level`` exits
        (every earlier node but its ancestors) starts at ``2 * nid -
        level``; a second, reverse pass ends each node one step after
        its last child, or after its own start.  A node from another
        document is an inserted copy: it has no old labels to compare.
        """
        doc = self.doc
        relabeled = 0
        nodes: list[Node] = []
        # Per node: one of this document's, with nid and start unchanged.
        kept: list[bool] = []
        stack = [doc.nodes[0]]
        stack[0].level = 0
        while stack:
            node = stack.pop()
            nid = len(nodes)
            start = 2 * nid - node.level
            ours = node.doc is doc
            same = ours and node.nid == nid and node.start == start
            if ours and not same:
                relabeled += 1
            kept.append(same)
            node.nid = nid
            node.doc = doc
            node.start = start
            node._string_value = None
            nodes.append(node)
            children = node.children
            if children:
                level = node.level + 1
                for child in children:
                    child.level = level
                stack.extend(reversed(children))
        for node, same in zip(reversed(nodes), reversed(kept)):
            children = node.children
            end = children[-1].end + 1 if children else node.start + 1
            if same and node.end != end:
                relabeled += 1
            node.end = end
        doc.nodes = nodes
        doc.root = next((c for c in nodes[0].children if c.kind == ELEMENT), None)
        report.indexes_invalidated = int(doc.drop_derived())
        report.nodes_relabeled += relabeled
