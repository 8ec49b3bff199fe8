"""The document catalog: named documents, versioned by snapshot.

A :class:`Catalog` maps names to their *current* :class:`Snapshot` and
hands out per-snapshot engines — the serving layer's unit of
isolation:

* **readers** ``pin()`` the current snapshot (a refcount, not a lock),
  query it through ``engine_for()``, and ``unpin()`` when done; a
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
the per-document plan cache, and the
:class:`~repro.physical.parallel_scan.ScanPools` every engine it creates
scans on.  A :class:`~repro.engine.database.Database` is its first
document, and a query service only borrows it; :meth:`close` releases
the pools and the current versions' derived state.

All engines of one document share one plan cache, keyed by the
structural summary's digest (``Engine.stats_fingerprint``) and not by
snapshot: a plan reads only the statistics the digest covers, so every
version of one shape shares it, and a retire has no plan to purge.
Results are what stays per snapshot (the query service's result cache).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable

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
    "Currently live (current or pinned) snapshots across the catalog")


class _Entry:
    """Per-document state; all fields guarded by the catalog lock."""

    __slots__ = ("name", "current", "pins", "plan_cache", "engines")

    def __init__(self, name: str, snapshot: Snapshot,
                 plan_cache_capacity: int) -> None:
        self.name = name
        self.current = snapshot
        #: snapshot_id -> reader refcount.
        self.pins: dict[int, int] = {}
        #: one plan cache shared by every version's engine.
        self.plan_cache = PlanCache(plan_cache_capacity)
        #: snapshot_id -> Engine bound to that version.
        self.engines: dict[int, Engine] = {}


class Catalog:
    """A registry of named documents with snapshot-isolated versions."""

    def __init__(self, plan_cache_capacity: int = 128) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        self._ids = itertools.count(1)
        self._plan_cache_capacity = plan_cache_capacity
        self._retire_listeners: list[Callable[[Snapshot], None]] = []
        #: The scan executors of every engine this catalog creates
        #: (partitioned plans); spawned lazily, shut by :meth:`close`.
        self.scan_pools = ScanPools()

    # ------------------------------------------------------------------
    # Registration and lookup.
    # ------------------------------------------------------------------

    def register(self, name: str, source: Document | str) -> Snapshot:
        """Register a document (a parsed tree or XML text) under ``name``.

        The document becomes snapshot 1 of the name *without* a fork:
        the catalog takes ownership, so the caller must not mutate it
        afterwards (use :meth:`updater`).
        """
        doc = parse(source) if isinstance(source, str) else source
        with self._lock:
            if name in self._entries:
                raise UsageError(f"document {name!r} is already registered")
            snapshot = Snapshot(name, next(self._ids), doc)
            self._entries[name] = _Entry(name, snapshot,
                                         self._plan_cache_capacity)
            _LIVE.set(self._live_count())
        return snapshot

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def current(self, name: str) -> Snapshot:
        """The current snapshot of ``name`` (not pinned — may retire
        underneath the caller; use :meth:`pin` around query work)."""
        with self._lock:
            return self._entry(name).current

    # ------------------------------------------------------------------
    # Reader protocol: pin / query / unpin.
    # ------------------------------------------------------------------

    def pin(self, name: str) -> Snapshot:
        """Pin the current snapshot for reading; pairs with :meth:`unpin`."""
        with self._lock:
            entry = self._entry(name)
            snapshot = entry.current
            entry.pins[snapshot.snapshot_id] = \
                entry.pins.get(snapshot.snapshot_id, 0) + 1
            return snapshot

    def unpin(self, snapshot: Snapshot) -> None:
        """Release a pin; the last unpin of a superseded snapshot retires it."""
        retired: Snapshot | None = None
        with self._lock:
            entry = self._entry(snapshot.name)
            sid = snapshot.snapshot_id
            count = entry.pins.get(sid, 0)
            if count <= 0:
                raise UsageError(
                    f"snapshot {sid} of {snapshot.name!r} is not pinned")
            if count == 1:
                del entry.pins[sid]
                if entry.current.snapshot_id != sid:
                    retired = self._retire(entry, snapshot)
            else:
                entry.pins[sid] = count - 1
        if retired is not None:
            self._notify_retired(retired)

    def engine_for(self, snapshot: Snapshot) -> Engine:
        """The engine bound to one current or pinned snapshot (created
        once per version).

        The engine shares the document's plan cache; what it reads of
        the document it reads through ``snapshot.doc.derived``.
        """
        with self._lock:
            entry = self._entry(snapshot.name)
            sid = snapshot.snapshot_id
            if sid != entry.current.snapshot_id and sid not in entry.pins:
                raise UsageError(
                    f"snapshot {sid} of {snapshot.name!r} has been retired")
            engine = entry.engines.get(sid)
            if engine is None:
                engine = Engine(snapshot.doc, plan_cache=entry.plan_cache)
                engine.scan_pools = self.scan_pools
                entry.engines[sid] = engine
            return engine

    # ------------------------------------------------------------------
    # Writer protocol: copy-on-write batches.
    # ------------------------------------------------------------------

    def updater(self, name: str) -> SnapshotUpdater:
        """Start a copy-on-write update batch against ``name``.

        The batch forks the current snapshot's document; ``commit()``
        (or a clean ``with`` exit) publishes the fork as the next
        snapshot.  Concurrent batches are last-committer-wins: each
        forks the snapshot current at *its* start.
        """
        return SnapshotUpdater(self, self.current(name))

    def _publish(self, name: str, doc: Document,
                 reports: list[UpdateReport]) -> Snapshot:
        """Atomically swap in a new version (SnapshotUpdater.commit)."""
        retired: Snapshot | None = None
        with self._lock:
            entry = self._entry(name)
            snapshot = Snapshot(name, next(self._ids), doc)
            previous = entry.current
            entry.current = snapshot
            if entry.pins.get(previous.snapshot_id, 0) == 0:
                retired = self._retire(entry, previous)
            _PUBLISHES.inc()
            _LIVE.set(self._live_count())
        if retired is not None:
            self._notify_retired(retired)
        return snapshot

    # ------------------------------------------------------------------
    # Retirement listeners and introspection.
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

    def plan_cache(self, name: str) -> PlanCache:
        """The shared plan cache of one document (introspection/tests)."""
        with self._lock:
            return self._entry(name).plan_cache

    # ------------------------------------------------------------------
    # Internals (callers hold the lock unless noted).
    # ------------------------------------------------------------------

    def _entry(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise UsageError(f"unknown document {name!r} "
                             f"(registered: {sorted(self._entries) or '-'})")
        return entry

    def _retire(self, entry: _Entry, snapshot: Snapshot) -> Snapshot:
        engine = entry.engines.pop(snapshot.snapshot_id, None)
        if engine is not None:
            engine.retired = (f"snapshot {snapshot.snapshot_id} "
                              f"of {snapshot.name!r}")
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
        total = 0
        for entry in self._entries.values():
            ids = set(entry.pins)
            ids.add(entry.current.snapshot_id)
            total += len(ids)
        return total

    def close(self) -> None:
        """Drain and stop the scan pools and drop the current versions'
        derived state (their arena files; retired ones went at
        retirement).  Idempotent, and the versions stay: a later reader
        rebuilds what it needs."""
        self.scan_pools.close(wait=True)
        with self._lock:
            current = [entry.current for entry in self._entries.values()]
        for snapshot in current:
            snapshot.doc.drop_derived()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Catalog {self.names()}>"
