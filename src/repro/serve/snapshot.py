"""Immutable document snapshots: the serving layer's isolation unit.

The serving story (ROADMAP: "heavy traffic from millions of users")
needs readers and writers to coexist without locks on the query hot
path.  The region-label encoding makes in-place structural updates
global events — ``DocumentUpdater`` relabels the arena from the splice
point onward — so a reader racing a writer could observe a half-applied
tree.  Instead of locking, the serving layer never mutates a published
document at all:

* a :class:`Snapshot` is an immutable-by-convention document with a
  database-unique id (what is computed from it hangs off the
  document, ``snapshot.doc.derived``, until the snapshot retires);
* an update batch forks the current snapshot's document once
  (:func:`fork_document`, copy-on-first-write), applies every operation
  to the private fork, and publishes the fork as a *new* snapshot on
  commit — in-flight queries keep reading their pinned snapshot.

The fork is the one O(n) step of a batch: each operation then shifts
only the labels after its splice point and patches the derived state,
and the fork copies the node arena once per *batch* to buy lock-free
readers.  It starts with what the base has computed — the summary
object, the postings mapped onto the clones, every node's cached string
value — so a commit rebuilds nothing the update did not change.  Tag
names, text and attribute values are immutable Python strings shared
by reference between versions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from types import TracebackType

from repro.xmlkit.derived import carry_fork
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.tree import Document, Node
from repro.xmlkit.update import DocumentUpdater, UpdateReport

__all__ = ["Snapshot", "SnapshotUpdater", "fork_document"]


def fork_document(doc: Document) -> Document:
    """Deep-copy a document, preserving every label verbatim.

    Nids, regions, levels and cached string values are copied, so the
    fork is indistinguishable from the original (the snapshot tests
    assert byte-identical serialization) at one O(n) pass; the summary
    and postings the original has built carry over
    (:func:`~repro.xmlkit.derived.carry_fork`).
    """
    fork = Document()
    src_nodes = doc.nodes
    clones: list[Node] = [fork.document_node]
    doc_node = clones[0]
    doc_node.start = src_nodes[0].start
    doc_node.end = src_nodes[0].end
    doc_node.level = src_nodes[0].level
    doc_node._string_value = src_nodes[0]._string_value
    # Pre-order arena: every parent precedes its children, so the
    # parent's clone always exists by the time a child is copied.
    for src in src_nodes[1:]:
        clone = Node(fork, src.nid, src.kind, src.tag, src.text)
        if src.attrs:
            clone.attrs = dict(src.attrs)
        clone.start = src.start
        clone.end = src.end
        clone.level = src.level
        clone._string_value = src._string_value
        assert src.parent is not None
        parent = clones[src.parent.nid]
        clone.parent = parent
        parent.children.append(clone)
        clones.append(clone)
        fork.nodes.append(clone)
    if doc.root is not None:
        fork.root = clones[doc.root.nid]
    carry_fork(doc, fork, clones)
    return fork


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One published, immutable version of the database's document.

    ``snapshot_id`` is unique and monotonic within its database, so
    result-cache keys can reference a version without carrying the
    document around.  The document behind
    a snapshot must never be mutated — all updates go through
    :class:`SnapshotUpdater`, which works on a private fork.
    """

    snapshot_id: int
    doc: Document

    @property
    def stats(self) -> DocumentStats:
        """Statistics of this version's document (``doc.derived``)."""
        return self.doc.derived.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Snapshot id={self.snapshot_id} "
                f"{len(self.doc.nodes)} nodes>")


@dataclass
class SnapshotUpdater:
    """One copy-on-write update batch against the database's document.

    Obtained from :meth:`~repro.engine.database.Database.updater`; applies
    the same operations as :class:`~repro.xmlkit.update.DocumentUpdater`
    but to a private fork of the base snapshot's document, so concurrent
    readers never observe intermediate states.  :meth:`commit` publishes
    the fork as the document's next snapshot atomically; :meth:`abort`
    discards it.  Usable as a context manager (commit on clean exit,
    abort on exception)::

        with db.updater() as up:
            shelf = up.doc.root
            up.insert_subtree(shelf, new_book)
        # <- the new snapshot is published here

    A batch collected with operations applied but neither committed nor
    aborted emits a :class:`ResourceWarning`: its writes are lost.
    """

    database: object
    base: Snapshot
    doc: Document = field(init=False)
    reports: list[UpdateReport] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.doc = fork_document(self.base.doc)
        self._updater = DocumentUpdater(self.doc)
        self._done = False

    def resolve(self, node: Node) -> Node:
        """Map a node of the base snapshot to its clone in the fork.

        Valid for nodes addressed *before* the batch's first operation
        (later operations renumber the fork's arena); address nodes
        found mid-batch through :attr:`doc` directly.
        """
        return self.doc.nodes[node.nid]

    def insert_subtree(self, parent: Node, subtree_root: Node,
                       position: int | None = None) -> UpdateReport:
        """Insert a subtree (see ``DocumentUpdater.insert_subtree``).

        ``parent`` may belong to the base snapshot (it is resolved into
        the fork when the batch has not restructured the tree yet) or to
        :attr:`doc` itself.
        """
        report = self._updater.insert_subtree(self._local(parent),
                                              subtree_root, position)
        self.reports.append(report)
        return report

    def delete_subtree(self, node: Node) -> UpdateReport:
        """Delete a subtree (see ``DocumentUpdater.delete_subtree``)."""
        report = self._updater.delete_subtree(self._local(node))
        self.reports.append(report)
        return report

    def _local(self, node: Node) -> Node:
        if node.doc is self.doc:
            return node
        if node.doc is self.base.doc and not self.reports:
            return self.resolve(node)
        return node  # let DocumentUpdater raise its precise UpdateError

    def commit(self) -> Snapshot:
        """Publish the fork as the document's next snapshot."""
        if self._done:
            raise RuntimeError("update batch already committed or aborted")
        self._done = True
        publish = getattr(self.database, "_publish")
        snapshot: Snapshot = publish(self.doc, self.reports)
        return snapshot

    def abort(self) -> None:
        """Discard the fork; the database never sees this batch."""
        self._done = True

    def __enter__(self) -> SnapshotUpdater:
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        if self._done:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __del__(self) -> None:
        if not getattr(self, "_done", True) and self.reports:
            warnings.warn(
                f"update batch on snapshot {self.base.snapshot_id} dropped "
                f"with {len(self.reports)} operation(s) applied and neither "
                "commit() nor abort() called; its writes are lost",
                ResourceWarning, stacklevel=2)
