"""The document catalog: one document, versioned by snapshot.

A :class:`Catalog` holds its document's *current* :class:`Snapshot`
and hands out per-snapshot engines — the serving layer's unit of
isolation:

* **readers** pin the current snapshot (a refcount, not a lock) and
  query it through its engine for the span of one :meth:`reading`; a
  pinned snapshot survives any number of publishes;
* **writers** run copy-on-write batches via ``updater()``; commit
  publishes the fork as the next snapshot atomically under the catalog
  lock — the only synchronization point; it covers dictionary work
  and is never held during query execution or an O(n) pass (statistics,
  summary, tag index: ``snapshot.doc.derived``, carried forward by the
  batch or built by first reader);
* a snapshot with no pins that is no longer current is **retired**: its
  engine is released (and refuses every later call), its document's
  derived state is dropped, and retire listeners fire (the query
  service uses this to purge its result cache).

The catalog is the one owner of what outlives a request: the versions,
the plan cache, and the
:class:`~repro.physical.parallel_scan.ScanPools` every engine it creates
scans on.  A :class:`~repro.engine.database.Database` owns one, and a
query service only borrows it; :meth:`close` releases the pools and the
current version's derived state.

All engines share one plan cache, keyed by the structural summary's
digest (``Engine.stats_fingerprint``) and not by snapshot: a plan reads
only the statistics the digest covers, so every version of one shape
shares it, and a retire has no plan to purge.  Results are what stays
per snapshot (the query service's result cache).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.engine.plancache import PlanCache
from repro.engine.session import Engine
from repro.errors import UsageError
from repro.obs.metrics import REGISTRY
from repro.physical.parallel_scan import ScanPools
from repro.serve.snapshot import Snapshot, SnapshotUpdater
from repro.xmlkit.parser import parse
from repro.xmlkit.tree import Document
from repro.xmlkit.update import UpdateReport

__all__ = ["Catalog"]

_PUBLISHES = REGISTRY.counter(
    "repro_snapshot_publishes_total",
    "Snapshots published by update-batch commits")
_RETIRES = REGISTRY.counter(
    "repro_snapshot_retires_total",
    "Snapshots retired (unpinned and superseded)")
_LIVE = REGISTRY.gauge(
    "repro_snapshots_live",
    "Currently live (current or pinned) snapshots of the catalog")


class Catalog:
    """One document with snapshot-isolated versions.

    ``doc`` (a parsed tree or XML text) becomes snapshot 1 *without* a
    fork: the catalog takes ownership, so the caller must not mutate it
    afterwards (use :meth:`updater`).
    """

    def __init__(self, doc: Document | str) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: The current version; the fields below are guarded by the lock.
        self._current = Snapshot(next(self._ids),
                                 parse(doc) if isinstance(doc, str) else doc)
        #: snapshot_id -> reader refcount.
        self._pins: dict[int, int] = {}
        #: snapshot_id -> Engine bound to that version.
        self._engines: dict[int, Engine] = {}
        self._retire_listeners: list[Callable[[Snapshot], None]] = []
        #: One plan cache shared by every version's engine.
        self.plan_cache = PlanCache()
        #: The scan executors of every engine this catalog creates
        #: (partitioned plans); spawned lazily, shut by :meth:`close`.
        self.scan_pools = ScanPools()
        _LIVE.set(1)

    def current(self) -> Snapshot:
        """The current snapshot (not pinned — may retire underneath the
        caller; use :meth:`reading` around query work)."""
        with self._lock:
            return self._current

    # ------------------------------------------------------------------
    # Reader protocol: pin / query / unpin.
    # ------------------------------------------------------------------

    @contextmanager
    def reading(self) -> Iterator[tuple[Snapshot, Engine]]:
        """The current snapshot and its engine, pinned for one read."""
        snapshot = self.pin()
        try:
            yield snapshot, self.engine_for(snapshot)
        finally:
            self.unpin(snapshot)

    def pin(self) -> Snapshot:
        """Pin the current snapshot for reading; pairs with :meth:`unpin`."""
        with self._lock:
            snapshot = self._current
            sid = snapshot.snapshot_id
            self._pins[sid] = self._pins.get(sid, 0) + 1
            return snapshot

    def unpin(self, snapshot: Snapshot) -> None:
        """Release a pin; the last unpin of a superseded snapshot retires it."""
        retired: Snapshot | None = None
        with self._lock:
            sid = snapshot.snapshot_id
            count = self._pins.get(sid, 0)
            if count <= 0:
                raise UsageError(f"snapshot {sid} is not pinned")
            if count == 1:
                del self._pins[sid]
                if self._current.snapshot_id != sid:
                    retired = self._retire(snapshot)
            else:
                self._pins[sid] = count - 1
        if retired is not None:
            self._notify_retired(retired)

    def engine_for(self, snapshot: Snapshot) -> Engine:
        """The engine bound to one current or pinned snapshot (created
        once per version).

        The engine shares the catalog's plan cache; what it reads of
        the document it reads through ``snapshot.doc.derived``.
        """
        with self._lock:
            sid = snapshot.snapshot_id
            if sid != self._current.snapshot_id and sid not in self._pins:
                raise UsageError(f"snapshot {sid} has been retired")
            engine = self._engines.get(sid)
            if engine is None:
                engine = Engine(snapshot.doc, plan_cache=self.plan_cache)
                engine.scan_pools = self.scan_pools
                self._engines[sid] = engine
            return engine

    # ------------------------------------------------------------------
    # Writer protocol: copy-on-write batches.
    # ------------------------------------------------------------------

    def updater(self) -> SnapshotUpdater:
        """Start a copy-on-write update batch.

        The batch forks the current snapshot's document; ``commit()``
        (or a clean ``with`` exit) publishes the fork as the next
        snapshot.  Concurrent batches are last-committer-wins: each
        forks the snapshot current at *its* start.
        """
        return SnapshotUpdater(self, self.current())

    def _publish(self, doc: Document,
                 reports: list[UpdateReport]) -> Snapshot:
        """Atomically swap in a new version (SnapshotUpdater.commit)."""
        retired: Snapshot | None = None
        with self._lock:
            snapshot = Snapshot(next(self._ids), doc)
            previous, self._current = self._current, snapshot
            if self._pins.get(previous.snapshot_id, 0) == 0:
                retired = self._retire(previous)
            _PUBLISHES.inc()
            _LIVE.set(self._live_count())
        if retired is not None:
            self._notify_retired(retired)
        return snapshot

    # ------------------------------------------------------------------
    # Retirement listeners.
    # ------------------------------------------------------------------

    def on_retire(self, callback: Callable[[Snapshot], None]
                  ) -> Callable[[], None]:
        """Register a callback fired (outside the lock) per retirement;
        returns the call that deregisters it.

        Listeners run *synchronously* inside the retiring call
        (``unpin``/``commit``), so cleanup they perform — the query
        service invalidates the retired snapshot's result-cache entries
        here, with an audit counter proving zero survivors — is
        complete before the retire returns.  Keep listeners fast and
        never have them re-enter the catalog lock.
        """
        self._retire_listeners.append(callback)
        return lambda: self._retire_listeners.remove(callback)

    # ------------------------------------------------------------------
    # Internals (callers hold the lock unless noted).
    # ------------------------------------------------------------------

    def _retire(self, snapshot: Snapshot) -> Snapshot:
        engine = self._engines.pop(snapshot.snapshot_id, None)
        if engine is not None:
            engine.retired = f"snapshot {snapshot.snapshot_id}"
        _RETIRES.inc()
        _LIVE.set(self._live_count())
        return snapshot

    def _notify_retired(self, snapshot: Snapshot) -> None:
        """Drop derived state and fire listeners — outside the catalog
        lock."""
        # No query can pin the snapshot again: its statistics, summary,
        # tag index and arena file (processes-backend scan image) go.
        snapshot.doc.drop_derived()
        for listener in tuple(self._retire_listeners):
            listener(snapshot)

    def _live_count(self) -> int:
        return len(self._pins.keys() | {self._current.snapshot_id})

    def close(self) -> None:
        """Drain and stop the scan pools and drop the current version's
        derived state (its arena file; retired ones went at
        retirement).  Idempotent, and the versions stay: a later reader
        rebuilds what it needs."""
        self.scan_pools.close(wait=True)
        self.current().doc.drop_derived()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Catalog current={self.current()!r}>"
