"""Immutable document snapshots: the serving layer's isolation unit.

The serving story (ROADMAP: "heavy traffic from millions of users")
needs readers and writers to coexist without locks on the query hot
path.  The region-label encoding makes a structural update a global
event — a splice relabels the arena from the splice point onward — so a
reader racing it could observe a half-applied tree.  Instead of
locking, no document anyone can read is ever edited:

* a :class:`Snapshot` is an immutable document with a database-unique
  id (what is computed from it hangs off the document,
  ``snapshot.doc.derived``, until the snapshot retires);
* an update batch (:class:`SnapshotUpdater`) forks the current
  snapshot's document once (:func:`fork_document`, re-exported here),
  applies every operation to the private fork, and publishes the fork
  as a *new* snapshot on commit — in-flight queries keep reading their
  pinned snapshot.

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
from dataclasses import dataclass
from types import TracebackType

from repro.errors import UsageError
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.tree import Document
from repro.xmlkit.update import DocumentUpdater, fork_document

__all__ = ["Snapshot", "SnapshotUpdater", "fork_document"]


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One published, immutable version of the database's document.

    ``snapshot_id`` is unique and monotonic within its database, so
    result-cache keys can reference a version without carrying the
    document around.  The document behind a snapshot is never edited:
    an update batch works on a private fork and publishes it as the
    next snapshot.
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


class SnapshotUpdater(DocumentUpdater):
    """One copy-on-write update batch against the database's document.

    Obtained from :meth:`~repro.engine.database.Database.updater`: a
    :class:`~repro.xmlkit.update.DocumentUpdater` over the base
    snapshot's document whose :meth:`commit` publishes the fork as the
    next snapshot atomically and :meth:`abort` discards it.  Either
    finishes the batch: any later operation, commit or abort raises
    ``UsageError``.  Usable as a context manager (commit on clean exit,
    abort on exception)::

        with db.updater() as up:
            shelf = up.doc.root
            up.insert_subtree(shelf, new_book)
        # <- the new snapshot is published here

    A batch collected with operations applied but neither committed nor
    aborted emits a :class:`ResourceWarning`: its writes are lost.
    """

    def __init__(self, database: object, snapshot: Snapshot) -> None:
        super().__init__(snapshot.doc)
        self.database = database
        self.snapshot = snapshot

    def _finish(self) -> None:
        if self._done:
            raise UsageError("update batch already committed or aborted")
        self._done = True

    def commit(self) -> Snapshot:
        """Publish the fork as the document's next snapshot."""
        self._finish()
        publish = getattr(self.database, "_publish")
        snapshot: Snapshot = publish(self.doc, self.reports)
        return snapshot

    def abort(self) -> None:
        """Discard the fork; the database never sees this batch."""
        self._finish()

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
                f"update batch on snapshot {self.snapshot.snapshot_id} dropped "
                f"with {len(self.reports)} operation(s) applied and neither "
                "commit() nor abort() called; its writes are lost",
                ResourceWarning, stacklevel=2)
