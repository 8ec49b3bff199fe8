"""The public database facade: the object :func:`repro.connect` returns.

The paper's setting is a native XML database (its comparator X-Hive is
one); this module provides the corresponding storage-backed entry
point: a :class:`Database` bundles a document stored in the succinct
binary format (:mod:`repro.xmlkit.binary`) with its statistics and a
tag-name index.  The underlying
:class:`~repro.engine.session.Engine` is an implementation detail —
reachable as ``db.engine`` for diagnostics, but the supported surface
is this class plus the serving layer behind :meth:`serve`.

Typical use::

    with repro.connect(xml_text) as db:
        db.save("library.btx")
        db.query("//book[author]//title")
    ...
    with repro.connect("library.btx") as db:
        service = db.serve(workers=8)
        service.query("//book[author]//title", timeout_ms=100)

Updates go through :meth:`updater`: every structural update drops the
document's derived state (statistics, summary, tag index, arena file —
the Section-2.1 maintenance story, wired in — and bumps its version),
and the engine's plan cache is subscribed, so repeated queries never
run against a stale strategy choice.  Once :meth:`serve` is active,
in-place updates are refused: all mutations must go through the
service's snapshot updaters, so concurrent readers keep their isolated
versions, and the database's own reads follow the version the service
serves.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import UsageError
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer
from repro.physical.parallel_scan import ScanPools
from repro.xmlkit.binary import dump, load
from repro.xmlkit.parser import parse
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document
from repro.xmlkit.update import DocumentUpdater
from repro.engine.backend import ExecutionBackend
from repro.engine.prepared import PreparedQuery
from repro.engine.request import QueryOptions
from repro.engine.result import QueryResult
from repro.engine.session import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> engine)
    from repro.serve.server import Server
    from repro.serve.service import QueryService

__all__ = ["Database"]


class Database:
    """A stored document plus its engine, statistics and index.

    ``slow_query_ms`` (or a later :meth:`configure_slow_log` call)
    enables the slow-query log: every query whose wall time crosses the
    threshold is recorded with its text, strategy, chosen plan and the
    run's work counters — see :class:`~repro.obs.slowlog.SlowQueryLog`.
    """

    def __init__(self, doc: Document,
                 slow_query_ms: float | None = None,
                 analyze_queries: bool = True) -> None:
        self.doc = doc
        self.engine = Engine(doc, analyze_queries=analyze_queries)
        #: Lazily-spawned scan executors (thread pool + process backend)
        #: owned by this database; every parallel plan of ``self.engine``
        #: rides them, and :meth:`close` shuts them down deterministically.
        self._scan_pools = self.engine.scan_pools = ScanPools()
        self._updater: DocumentUpdater | None = None
        self._service: QueryService | None = None
        self._server: Server | None = None
        self._closed = False
        self.slow_log: SlowQueryLog | None = (
            SlowQueryLog(slow_query_ms) if slow_query_ms is not None else None)

    def configure_slow_log(self, threshold_ms: float = 100.0,
                           path: str | Path | None = None,
                           max_entries: int = 1000) -> SlowQueryLog:
        """Enable (or reconfigure) the slow-query log; returns it."""
        self.slow_log = SlowQueryLog(threshold_ms, path, max_entries)
        return self.slow_log

    # ------------------------------------------------------------------
    # Construction / persistence.
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(cls, text: str) -> Database:
        """Build a database from XML text."""
        return cls(parse(text))

    @classmethod
    def open(cls, path: str | Path) -> Database:
        """Open a database stored with :meth:`save`.

        The new instance's plan cache starts empty — compiled plans
        never survive a save/open round-trip (only the document is
        persisted); the explicit ``reopen`` invalidation records the
        boundary in the cache counters.
        """
        db = cls(load(Path(path).read_bytes()))
        db.engine.plan_cache.invalidate("reopen")
        return db

    def save(self, path: str | Path) -> int:
        """Persist to the succinct binary format; returns bytes written."""
        payload = dump(self.doc)
        Path(path).write_bytes(payload)
        return len(payload)

    # ------------------------------------------------------------------
    # Queries and updates.
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
        with self._reading() as engine:
            return engine._run(
                text, options, counters=counters, tracer=tracer,
                slow=None if log is None else (
                    lambda plan, elapsed_ms, delta, error: log.observe(
                        text, strategy, plan or "?", elapsed_ms, delta)))

    def prepare(self, text: str, *, strategy: str = "auto",
                executor: ExecutionBackend | str | None = None
                ) -> PreparedQuery:
        """Compile once for repeated execution (see :meth:`Engine.prepare`).

        The prepared query keeps the document version it was prepared
        on: one prepared while :meth:`serve` runs goes on reading that
        snapshot after later commits — prepare again to read a newer one.
        """
        with self._reading() as engine:
            return engine.prepare(text, strategy=strategy, executor=executor)

    def explain_analyze(self, text: str, strategy: str = "auto",
                        work_budget: int | None = None, *,
                        params: dict | None = None,
                        timeout_ms: float | None = None) -> str:
        """Per-operator measured-vs-estimated rows (see Engine)."""
        with self._reading() as engine:
            return engine.explain_analyze(text, strategy,
                                          work_budget=work_budget,
                                          params=params,
                                          timeout_ms=timeout_ms)

    def explain(self, text: str, strategy: str = "auto") -> str:
        with self._reading() as engine:
            return engine.explain(text, strategy)

    @contextmanager
    def _reading(self) -> Iterator[Engine]:
        """The engine a read runs on: :attr:`engine` — or, while
        :meth:`serve` runs, the serving catalog's engine for the version
        the service serves, pinned for the read (the stored document is
        the first version; the service's commits publish forks)."""
        service = self._service
        if service is None or service.closed:
            yield self.engine
            return
        catalog = service.catalog
        snapshot = catalog.pin("main")
        try:
            engine = catalog.engine_for(snapshot)
            engine.scan_pools = self._scan_pools
            yield engine
        finally:
            catalog.unpin(snapshot)

    @property
    def doc_stats(self) -> DocumentStats:
        """Structural statistics of the stored document (Table 1 row)."""
        return self.engine.stats

    def stats(self, top: int = 10) -> dict:
        """A structured JSON snapshot of the database's runtime state.

        One call, one dict — what an operator (or ``python -m
        repro.obs report``) needs to see where time goes: the document
        summary, plan-cache hit ratios, the runtime statistics store
        (top ``top`` plans by accumulated time, per-strategy win/loss),
        the slow-query log, and the serving
        layer's own :meth:`QueryService.stats
        <repro.serve.service.QueryService.stats>` when :meth:`serve` is
        active.

        The payload is versioned: ``"schema": 1`` at the top level
        (shared with ``QueryService.stats()`` and the network ``stats``
        frame; the schema is documented in DESIGN.md and ``python -m
        repro.obs report`` refuses versions it does not know).  The
        ``top`` default is 10 on every stats surface.  While
        :meth:`serve` runs, ``document`` and the query-lint summary
        describe the version the service serves, which :meth:`query`
        reads too.

        .. note:: this used to be a property aliasing the document
           statistics; those now live at :attr:`doc_stats`.
        """
        with self._reading() as reader:
            doc_stats = reader.stats
            fingerprint = "/".join(
                str(part) for part in reader.stats_fingerprint())
            summary = (reader.summary if self.engine.analyze_queries
                       else None)
        return {
            "schema": 1,
            "document": {
                "n_nodes": doc_stats.n_nodes,
                "n_elements": doc_stats.n_elements,
                "n_distinct_tags": doc_stats.n_distinct_tags,
                "max_depth": doc_stats.max_depth,
                "recursive": doc_stats.recursive,
                "recursion_degree": doc_stats.recursion_degree,
                "fingerprint": fingerprint,
            },
            "plan_cache": self.engine.plan_cache.stats(),
            "statstore": self.engine.stats_store.snapshot(top=top),
            "slow_queries": (
                None if self.slow_log is None else {
                    "threshold_ms": self.slow_log.threshold_ms,
                    "entries": len(self.slow_log),
                }),
            "service": (self._service.stats()
                        if self._service is not None
                        and not self._service.closed else None),
            "querylint": {
                "enabled": self.engine.analyze_queries,
                "summary_paths": None if summary is None else len(summary),
                "summary_fingerprint": (None if summary is None
                                        else summary.fingerprint()),
            },
        }

    def updater(self) -> DocumentUpdater:
        """The document updater, wired for cache coherence: structural
        updates drop the document's derived state (the tag index is
        rebuilt lazily on the next join-based query) and the engine's
        plan cache (stale statistics must not steer strategy choice).

        Refused while :meth:`serve` is active: the service's readers
        hold snapshots of this document, and an in-place mutation would
        tear them — use ``service.updater()`` (copy-on-write) instead.
        """
        if self._service is not None and not self._service.closed:
            raise UsageError(
                "in-place updates are disabled while a query service is "
                "running (its readers hold snapshots of this document); "
                "use service.updater() for copy-on-write batches")
        if self._updater is None:
            self._updater = DocumentUpdater(self.doc)
            self._updater.register_listener(self.engine.notify_update)
        return self._updater

    # ------------------------------------------------------------------
    # Serving and lifecycle.
    # ------------------------------------------------------------------

    def serve(self, workers: int = 4, *,
              max_queue: int = 64,
              default_timeout_ms: float | None = None,
              result_cache=None) -> QueryService:
        """Start (or return) the concurrent query service for this
        database.

        The document becomes snapshot 1 of a fresh serving
        :class:`~repro.serve.catalog.Catalog` (registered as
        ``"main"``); queries go through a bounded worker pool with
        admission control and per-query deadlines, and updates through
        copy-on-write snapshot batches — see :mod:`repro.serve`.
        ``result_cache`` configures the byte-accounted result cache
        (see :func:`repro.serve.cachepolicy.resolve_result_cache`).
        The service is owned by the database:
        :meth:`close` drains and stops it.  Calling ``serve()`` again
        while the service runs returns the same instance (the knobs of
        the first call win).
        """
        if self._closed:
            raise UsageError("database is closed")
        if self._service is not None and not self._service.closed:
            return self._service
        from repro.serve.catalog import Catalog
        from repro.serve.service import QueryService

        catalog = Catalog(analyze_queries=self.engine.analyze_queries)
        catalog.register("main", self.doc)
        self._service = QueryService(
            catalog, workers=workers, max_queue=max_queue,
            default_timeout_ms=default_timeout_ms,
            result_cache=result_cache, slow_log=self.slow_log)
        return self._service

    def listen(self, host: str = "127.0.0.1", port: int = 0, *,
               workers: int = 4, **options) -> Server:
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
        any), shut down the database-owned scan executors (thread and
        process pools), drop the document's derived state (its arena
        file), and close the slow-query log.  Idempotent; the database
        refuses new serving after close, but plain serial :meth:`query`
        calls keep working (they hold no external resources)."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        if self._service is not None:
            self._service.close(drain=True)
        # Deterministic worker-pool cleanup: drain and stop the scan
        # executors this database owns, and unlink the document's arena
        # file if process-backend queries materialized one.
        self._scan_pools.close(wait=True)
        self.engine.scan_pools = None
        self.doc.drop_derived()
        if self.slow_log is not None:
            self.slow_log.close()

    def __enter__(self) -> Database:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def refresh_stats(self) -> DocumentStats:
        """Re-derive everything computed from the document (statistics,
        structural summary, tag index, arena file, fingerprint, plans)
        after a mutation that bypassed :meth:`updater`."""
        self.engine.notify_update()
        return self.engine.stats

    def __repr__(self) -> str:  # pragma: no cover
        stats = self.doc_stats
        return (f"<Database {stats.n_elements} elements, "
                f"{stats.n_distinct_tags} tags, "
                f"{'recursive' if stats.recursive else 'flat'}>")
