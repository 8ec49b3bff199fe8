"""The public database facade: the object :func:`repro.connect` returns.

The paper's setting is a native XML database (its comparator X-Hive is
one); this module provides the corresponding storage-backed entry
point.  A :class:`Database` is the one owner of a document and of
everything that outlives a request: its versions, one engine per
version, the plan cache and scan pools those engines share, the
slow-query log, and the query service and network server over it.  The
engine of the current version is reachable as ``db.engine`` for
diagnostics, but the supported surface is this class plus the serving
layer behind :meth:`serve`.

Typical use::

    with repro.connect(xml_text) as db:
        db.save("library.btx")
        db.query("//book[author]//title")
    ...
    with repro.connect("library.btx") as db:
        service = db.serve(workers=8)
        service.query("//book[author]//title", timeout_ms=100)

There is one version model — the Section-2.1 update problem answered
with copy-on-write snapshots:

* **readers** pin the current :class:`~repro.serve.snapshot.Snapshot`
  (a refcount, not a lock) and query it through its engine for the span
  of one :meth:`reading` — every :meth:`query`, :meth:`prepare`\\ d
  execution, :meth:`explain` and :meth:`stats`, and every served
  request; a pinned snapshot survives any number of publishes;
* **writers** run copy-on-write batches via :meth:`updater` (a running
  service's ``updater()`` is the same); commit publishes the fork as
  the next snapshot atomically under the database lock — the only
  synchronization point; it covers dictionary work and is never held
  during query execution or an O(n) pass (statistics, summary, tag
  index: ``snapshot.doc.derived``, carried forward by the batch or
  built by the first reader);
* a snapshot with no pins that is no longer current is **retired**: its
  engine is released (and refuses every later call), its document's
  derived state is dropped, and retire listeners fire (the query
  service uses this to purge its result cache).

All engines share one plan cache, keyed by the structural summary's
digest (``Engine.stats_fingerprint``) and not by snapshot: a plan reads
only the statistics the digest covers, so every version of one shape
shares it, and a retire has no plan to purge.  Results are what stays
per snapshot (the query service's result cache).  A commit outlives
the service that made it.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Any

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY, STATS_SCHEMA
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer
from repro.physical.parallel_scan import ScanPools
from repro.serve.snapshot import Snapshot, SnapshotUpdater
from repro.xmlkit.binary import dump, load
from repro.xmlkit.parser import parse
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document
from repro.xmlkit.update import UpdateReport
from repro.engine.backend import ExecutionBackend
from repro.engine.plancache import PlanCache
from repro.engine.prepared import PreparedQuery
from repro.engine.request import QueryOptions
from repro.engine.result import QueryResult
from repro.engine.session import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> engine)
    from repro.serve.server import Server
    from repro.serve.service import QueryService

__all__ = ["Database"]

_PUBLISHES = REGISTRY.counter(
    "repro_snapshot_publishes_total",
    "Snapshots published by update-batch commits")
_RETIRES = REGISTRY.counter(
    "repro_snapshot_retires_total",
    "Snapshots retired (unpinned and superseded)")
_LIVE = REGISTRY.gauge(
    "repro_snapshots_live",
    "Currently live (current or pinned) snapshots of the database")


class Database:
    """One document with snapshot-isolated versions.

    ``doc`` (a parsed tree or XML text) becomes snapshot 1 *without* a
    fork: the database takes ownership.  No update edits it: a batch
    (:meth:`updater`, like any ``DocumentUpdater``) edits its own fork
    and publishes that as the next snapshot.

    ``slow_query_ms`` (or a later :meth:`configure_slow_log` call)
    enables the slow-query log: every query whose wall time crosses the
    threshold is recorded with its text, strategy, chosen plan and the
    run's work counters — see :class:`~repro.obs.slowlog.SlowQueryLog`.
    A service over this database records into the same log.
    """

    def __init__(self, doc: Document | str,
                 slow_query_ms: float | None = None) -> None:
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
        #: The scan executors of every engine this database creates
        #: (partitioned plans); spawned lazily, shut by :meth:`close`.
        self.scan_pools = ScanPools()
        _LIVE.set(1)
        self.slow_log: SlowQueryLog | None = (
            SlowQueryLog(slow_query_ms) if slow_query_ms is not None else None)
        self._service: QueryService | None = None
        self._server: Server | None = None
        self._closed = False

    def configure_slow_log(self, threshold_ms: float = 100.0,
                           path: str | Path | None = None,
                           max_entries: int = 1000) -> SlowQueryLog:
        """Enable (or reconfigure) the slow-query log; returns it.  Direct
        and served queries both record into the new log from here on."""
        self.slow_log = SlowQueryLog(threshold_ms, path, max_entries)
        return self.slow_log

    @property
    def doc(self) -> Document:
        """The current version's document (an update never edits it:
        :meth:`updater` publishes a fork)."""
        return self.current().doc

    @property
    def engine(self) -> Engine:
        """The current version's engine (its plan cache is the
        database's, shared by every version).  It is valid until the
        next commit: once that retires its version, every call on it
        raises :class:`~repro.errors.UsageError` — read ``db.engine``
        again."""
        with self.reading() as (_, engine):
            return engine

    # ------------------------------------------------------------------
    # Reader protocol: pin / query / unpin.
    # ------------------------------------------------------------------

    def current(self) -> Snapshot:
        """The current snapshot (not pinned — may retire underneath the
        caller; use :meth:`reading` around query work)."""
        with self._lock:
            return self._current

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

        The engine shares the database's plan cache and scan pools;
        what it reads of the document it reads through
        ``snapshot.doc.derived``.
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
        (or a clean ``with db.updater() as up:`` exit) publishes the
        fork as the next snapshot.  Concurrent batches are
        last-committer-wins: each forks the snapshot current at *its*
        start.
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

    def on_retire(self, callback: Callable[[Snapshot], None]
                  ) -> Callable[[], None]:
        """Register a callback fired (outside the lock) per retirement;
        returns the call that deregisters it.

        Listeners run *synchronously* inside the retiring call
        (``unpin``/``commit``), so cleanup they perform — the query
        service invalidates the retired snapshot's result-cache entries
        here, with an audit counter proving zero survivors — is
        complete before the retire returns.  Keep listeners fast and
        never have them re-enter the database lock.
        """
        self._retire_listeners.append(callback)
        return lambda: self._retire_listeners.remove(callback)

    def _retire(self, snapshot: Snapshot) -> Snapshot:
        """Release a superseded version's engine (lock held)."""
        engine = self._engines.pop(snapshot.snapshot_id, None)
        if engine is not None:
            engine.retired = f"snapshot {snapshot.snapshot_id}"
        _RETIRES.inc()
        _LIVE.set(self._live_count())
        return snapshot

    def _notify_retired(self, snapshot: Snapshot) -> None:
        """Drop derived state and fire listeners — outside the lock."""
        # No query can pin the snapshot again: its statistics, summary,
        # tag index and arena file (processes-backend scan image) go.
        snapshot.doc.drop_derived()
        for listener in tuple(self._retire_listeners):
            listener(snapshot)

    def _live_count(self) -> int:
        return len(self._pins.keys() | {self._current.snapshot_id})

    # ------------------------------------------------------------------
    # Construction / persistence.
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> Database:
        """Open a database stored with :meth:`save` (only the document
        is persisted: the plan cache starts empty)."""
        return cls(load(Path(path).read_bytes()))

    def save(self, path: str | Path) -> int:
        """Persist the current version to the succinct binary format;
        returns bytes written."""
        with self.reading() as (snapshot, _):
            payload = dump(snapshot.doc)
        Path(path).write_bytes(payload)
        return len(payload)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def query(self, text: str, *,
              strategy: str = "auto",
              counters: ScanCounters | None = None,
              work_budget: int | None = None,
              trace: bool = False,
              tracer: Tracer | None = None,
              params: dict | None = None,
              timeout_ms: float | None = None,
              executor: ExecutionBackend | str | None = None) -> QueryResult:
        """Evaluate a query — the signature of :meth:`Engine.query`
        (options: :class:`~repro.engine.request.QueryOptions`).

        When the slow-query log is enabled, the run's own measurement
        (its record stage: elapsed time, plan, counter deltas — budget
        trips and expiries included) is recorded past the threshold.
        """
        log = self.slow_log
        options = QueryOptions(strategy, params, timeout_ms, executor,
                               work_budget, trace)
        with self.reading() as (_, engine):
            return engine._run(
                text, options, counters=counters, tracer=tracer,
                slow=None if log is None else (
                    lambda plan, elapsed_ms, delta, error: log.observe(
                        text, strategy, plan or "?", elapsed_ms, delta)))

    def prepare(self, text: str, *, strategy: str = "auto",
                executor: ExecutionBackend | str | None = None
                ) -> PreparedQuery:
        """Compile once for repeated execution (see :meth:`Engine.prepare`).

        Every execution runs on the version current at that call; after
        a commit that changes the document's shape the first one
        re-plans through the shared plan cache.
        """
        with self.reading() as (_, engine):
            prepared = engine.prepare(text, strategy=strategy,
                                      executor=executor)
        prepared._reading = self.reading
        return prepared

    def explain_analyze(self, text: str, strategy: str = "auto",
                        work_budget: int | None = None, *,
                        params: dict | None = None,
                        timeout_ms: float | None = None) -> str:
        """Per-operator measured-vs-estimated rows (see Engine)."""
        with self.reading() as (_, engine):
            return engine.explain_analyze(text, strategy,
                                          work_budget=work_budget,
                                          params=params,
                                          timeout_ms=timeout_ms)

    def explain(self, text: str, strategy: str = "auto") -> str:
        with self.reading() as (_, engine):
            return engine.explain(text, strategy)

    @property
    def doc_stats(self) -> DocumentStats:
        """Structural statistics of the current version (Table 1 row)."""
        return self.doc.derived.stats

    def stats(self) -> dict:
        """A structured JSON snapshot of the database's runtime state.

        One call, one dict: the current version's summary, the plan
        cache's hit ratios, the slow-query log's state, and the serving
        layer's own :meth:`QueryService.stats
        <repro.serve.service.QueryService.stats>` when :meth:`serve` is
        active.  The plan cache and the slow log are the database's, so
        they count the service's reads too.  Per-strategy latency lives
        in the metrics registry (``repro_query_latency_ms{strategy}``),
        per-query records in the slow log.

        The payload is versioned: ``"schema"`` at the top level is
        :data:`~repro.obs.metrics.STATS_SCHEMA` (shared with
        ``QueryService.stats()`` and the network ``stats`` frame; the
        schema is documented in DESIGN.md).
        """
        with self.reading() as (_, reader):
            doc_stats = reader.stats
            fingerprint = reader.summary.fingerprint()
        log = self.slow_log
        return {
            "schema": STATS_SCHEMA,
            "document": {
                "n_nodes": doc_stats.n_nodes,
                "n_elements": doc_stats.n_elements,
                "n_distinct_tags": doc_stats.n_distinct_tags,
                "max_depth": doc_stats.max_depth,
                "recursive": doc_stats.recursive,
                "recursion_degree": doc_stats.recursion_degree,
                "fingerprint": fingerprint,
            },
            "plan_cache": self.plan_cache.stats(),
            "slow_queries": (None if log is None else {
                "threshold_ms": log.threshold_ms, "entries": len(log)}),
            "service": (self._service.stats()
                        if self._service is not None
                        and not self._service.closed else None),
        }

    # ------------------------------------------------------------------
    # Serving and lifecycle.
    # ------------------------------------------------------------------

    def serve(self, workers: int = 4, *,
              max_queue: int = 64,
              default_timeout_ms: float | None = None,
              result_cache: int | None = None) -> QueryService:
        """Start (or return) the concurrent query service for this
        database.

        Queries go through a bounded worker pool with admission control
        and per-query deadlines, and updates through copy-on-write
        snapshot batches — see :mod:`repro.serve`.  ``result_cache`` is
        the result cache's byte budget: ``None`` for the default 16 MiB,
        an ``int`` >= 0 for another, ``0`` for no cache (see
        :class:`~repro.serve.cachepolicy.ResultCacheStorage`).  The
        service is owned by the database: :meth:`close` drains and
        stops it; closing it earlier leaves every version it published
        with the database.  Calling ``serve()`` again while the service
        runs returns the same instance (the knobs of the first call
        win).
        """
        if self._closed:
            raise UsageError("database is closed")
        if self._service is not None and not self._service.closed:
            return self._service
        from repro.serve.service import QueryService

        self._service = QueryService(
            self, workers=workers, max_queue=max_queue,
            default_timeout_ms=default_timeout_ms,
            result_cache=result_cache)
        return self._service

    def listen(self, host: str = "127.0.0.1", port: int = 0, *,
               workers: int = 4, **options: Any) -> Server:
        """Start the network serving front end for this database.

        Starts (or reuses) the in-process service via :meth:`serve`
        and binds a :class:`~repro.serve.server.Server` speaking the
        v1 frame protocol on ``host:port`` (port 0 picks an ephemeral
        port — read it back from ``server.address``).  Remote clients
        connect with :func:`repro.serve.client.connect`, which mirrors
        this API's keyword spelling exactly.  Remaining ``options`` are
        :class:`~repro.serve.server.Server` knobs (``target_ms``,
        ``max_window``, ``default_timeout_ms``, ...).  The server is
        owned by the database: :meth:`close` drains and stops it.
        Calling ``listen()`` again while a server runs returns the
        same instance (the knobs of the first call win).
        """
        if self._closed:
            raise UsageError("database is closed")
        if self._server is not None and not self._server.closed:
            return self._server
        from repro.serve.server import Server

        self._server = Server(self.serve(workers=workers),
                              host=host, port=port, **options)
        return self._server

    def close(self) -> None:
        """Drain and stop the network server and query service (if
        any), the scan pools, drop the current version's derived state
        (its arena file; retired ones went at retirement), and close
        the slow-query log.  Idempotent; the database refuses new
        serving after close, but plain serial :meth:`query` calls keep
        working (the versions stay: a later reader rebuilds what it
        needs)."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        if self._service is not None:
            self._service.close(drain=True)
        self.scan_pools.close(wait=True)
        self.current().doc.drop_derived()
        if self.slow_log is not None:
            self.slow_log.close()

    def __enter__(self) -> Database:
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        stats = self.doc_stats
        return (f"<Database {stats.n_elements} elements, "
                f"{stats.n_distinct_tags} tags, "
                f"{'recursive' if stats.recursive else 'flat'}>")
