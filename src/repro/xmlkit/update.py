"""Document updates — the paper's Section 2.1 update-problem, executable.

The paper argues that the join-based approach "inherits the update
problem associated with materialized views": region labels are a
materialization of structural relationships, so inserting or deleting
one element invalidates the encodings of whole document regions and the
tag-name indexes built over them, while the navigational/hybrid
approach discovers structure dynamically and pays nothing.

This module provides subtree insertion and deletion over the tree
model, with exact accounting of the relabeling work.  A document
anyone can read is never edited: :class:`DocumentUpdater` forks its
base once (:func:`fork_document`) and edits only the fork, so nothing
reading the base has to be told or copied out:

* ``insert_subtree`` / ``delete_subtree`` splice a subtree into or out
  of the fork and shift the labels from the splice point onward;
* each operation returns an :class:`UpdateReport` with the number of
  nodes whose labels changed — the quantity the update-cost ablation
  measures — and replaces the document's derived state with a patched
  successor (:func:`~repro.xmlkit.derived.carry_splice`: the summary
  with its statistics, and the tag postings; the arena file goes), so
  no holder can read a stale view and none has to be told.

Labels are maintained in a single pass from the splice point (labels
before it are provably unchanged): splicing ``k`` nodes in or out at
pre-order position ``at`` moves every later node by ``±k`` in ``nid``
and ``±2k`` in ``start`` and ``end``, and every ancestor's ``end`` by
``±2k``.  That is the best a region-encoding scheme can do without
gaps; the point of the ablation is precisely that this cost is linear
in the document tail while navigational evaluation needs no
maintenance at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UpdateError, UsageError
from repro.xmlkit.derived import carry_fork, carry_splice
from repro.xmlkit.tree import DOCUMENT, ELEMENT, Document, DocumentBuilder, Node

__all__ = ["UpdateReport", "DocumentUpdater", "UpdateError", "fork_document"]


def fork_document(doc: Document) -> Document:
    """Deep-copy a document, preserving every label verbatim.

    Nids, regions, levels and cached string values are copied, so the
    fork is indistinguishable from the original (the snapshot tests
    assert byte-identical serialization) at one O(n) pass; the summary
    and postings the original has built carry over
    (:func:`~repro.xmlkit.derived.carry_fork`).
    """
    fork = Document()
    clones = fork.nodes                 # node ``nid`` is ``clones[nid]``
    top, src = clones[0], doc.nodes[0]
    top.start, top.end, top.level = src.start, src.end, src.level
    top._string_value = src._string_value
    # Pre-order arena: every parent precedes its children, so the
    # parent's clone always exists by the time a child is copied.
    for src in doc.nodes[1:]:
        clone = Node(fork, src.nid, src.kind, src.tag, src.text)
        if src.attrs:
            clone.attrs = dict(src.attrs)
        clone.start, clone.end, clone.level = src.start, src.end, src.level
        clone._string_value = src._string_value
        assert src.parent is not None
        parent = clones[src.parent.nid]
        clone.parent = parent
        parent.children.append(clone)
        clones.append(clone)
    if doc.root is not None:
        fork.root = clones[doc.root.nid]
    carry_fork(doc, fork, clones)
    return fork


@dataclass
class UpdateReport:
    """Accounting for one update operation."""

    nodes_added: int = 0
    nodes_removed: int = 0
    nodes_relabeled: int = 0      # existing nodes whose (nid/start/end) changed
    #: 1 when the replaced version had materialised its tag index (the
    #: update maintained its postings), else 0.
    indexes_invalidated: int = 0


class DocumentUpdater:
    """One update batch: ``base`` is forked once, here, and every
    operation edits only the fork, :attr:`doc` (query it with
    ``Engine(updater.doc)``), giving it a new derived state: the summary
    and postings the old one had, patched — the materialized-view
    maintenance cost.  :attr:`reports` has one entry per operation.
    """

    def __init__(self, base: Document) -> None:
        self.base = base
        self.doc = fork_document(base)
        self.reports: list[UpdateReport] = []
        self._done = False          # a finished batch (commit / abort)

    def resolve(self, node: Node) -> Node:
        """Map a node of the base to its clone in the fork.

        Valid for nodes addressed *before* the batch's first operation
        (later operations renumber the fork's arena); address nodes
        found mid-batch through :attr:`doc` directly.
        """
        return self.doc.nodes[node.nid]

    def _local(self, node: Node) -> Node:
        if self._done:
            raise UsageError("update batch already committed or aborted")
        if node.doc is self.base and not self.reports:
            return self.resolve(node)
        return node

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def insert_subtree(self, parent: Node, subtree_root: Node,
                       position: int | None = None) -> UpdateReport:
        """Insert a (detached or foreign) subtree under ``parent``.

        ``position`` is the child index (default: append).  The subtree
        is deep-copied into the fork; the source is not modified.
        """
        parent = self._local(parent)
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
        copy = holder.finish()
        # The one copied subtree's nodes, in pre-order, under the "".
        (copied,) = copy.nodes[1].children
        run = copy.nodes[2:]
        siblings = parent.children
        index = len(siblings) if position is None else position
        if not 0 <= index <= len(siblings):
            raise UpdateError(f"child position {position} out of range")
        at = (siblings[index].nid if index < len(siblings)
              else parent.nid + parent.subtree_size())
        siblings.insert(index, copied)
        copied.parent = parent
        # Holder ids start at 2 and levels at 2; a region start is
        # 2 * nid - level in any document, and a span does not move.
        doc, shift = self.doc, parent.level - 1
        for node in run:
            span = node.end - node.start
            node.doc = doc
            node.nid += at - 2
            node.level += shift
            node.start = 2 * node.nid - node.level
            node.end = node.start + span
        return self._splice(UpdateReport(nodes_added=len(run)),
                            parent, at, run, 1)

    def delete_subtree(self, node: Node) -> UpdateReport:
        """Remove ``node`` and its whole subtree from the fork."""
        node = self._local(node)
        if node.doc is not self.doc:
            raise UpdateError("node belongs to a different document")
        if node.parent is None:
            raise UpdateError("cannot delete the document node")
        if node is self.doc.root:
            raise UpdateError("cannot delete the document element")
        node.parent.children.remove(node)
        run = self.doc.nodes[node.nid:node.nid + node.subtree_size()]
        return self._splice(UpdateReport(nodes_removed=len(run)),
                            node.parent, node.nid, run, -1)

    # ------------------------------------------------------------------
    # Label maintenance.
    # ------------------------------------------------------------------

    def _splice(self, report: UpdateReport, parent: Node, at: int,
                run: list[Node], sign: int) -> UpdateReport:
        """Put ``run`` (``sign`` 1) at ``nid`` ``at``, or take it out
        (-1); shift the tail after it and the ancestors' ends.

        The relabeled nodes are the tail (new ``nid`` and ``start``)
        plus the ancestors, document node included (new ``end``; their
        string values are the only ones the splice changes).
        """
        doc = self.doc
        nodes = doc.nodes
        moved = sign * len(run)
        region = 2 * moved
        tail = nodes[at:] if sign > 0 else nodes[at + len(run):]
        for node in tail:
            node.nid += moved
            node.start += region
            node.end += region
        ancestors = 0
        above: Node | None = parent
        while above is not None:
            above.end += region
            above._string_value = None
            ancestors += 1
            above = above.parent
        doc.nodes = nodes[:at] + run + tail if sign > 0 else nodes[:at] + tail
        doc.root = next((c for c in doc.nodes[0].children
                         if c.kind == ELEMENT), None)
        report.nodes_relabeled = len(tail) + ancestors
        report.indexes_invalidated = int(carry_splice(doc, parent, run, sign))
        self.reports.append(report)
        return report
