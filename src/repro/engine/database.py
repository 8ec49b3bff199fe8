"""The public database facade: the object :func:`repro.connect` returns.

The paper's setting is a native XML database (its comparator X-Hive is
one); this module provides the corresponding storage-backed entry
point: a :class:`Database` bundles a document stored in the succinct
binary format (:mod:`repro.xmlkit.binary`) with everything derived
from it.  It is a thin owner of a serving
:class:`~repro.serve.catalog.Catalog` whose one document, ``"main"``,
is the stored document: the catalog holds its versions, their shared
plan cache and the scan pools.  The engine of
the current version is reachable as ``db.engine`` for diagnostics, but
the supported surface is this class plus the serving layer behind
:meth:`serve`.

Typical use::

    with repro.connect(xml_text) as db:
        db.save("library.btx")
        db.query("//book[author]//title")
    ...
    with repro.connect("library.btx") as db:
        service = db.serve(workers=8)
        service.query("//book[author]//title", timeout_ms=100)

There is one version model — the Section-2.1 update problem answered
with copy-on-write snapshots.  Every read (:meth:`query`,
:meth:`prepare`d executions, :meth:`explain`, :meth:`stats`) pins the
current snapshot for the call; :meth:`updater` returns the same
copy-on-write batch ``service.updater()`` does, whose commit publishes
the next version and retires the old one (its engine refuses further
calls, its derived state is dropped; plans are keyed by document shape
and stay).  A running service and the database read and write the same
versions, and a commit outlives the service.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import UsageError
from repro.obs.metrics import STATS_SCHEMA
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer
from repro.xmlkit.binary import dump, load
from repro.xmlkit.parser import parse
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document
from repro.engine.backend import ExecutionBackend
from repro.engine.prepared import PreparedQuery
from repro.engine.request import DEFAULT_DOCUMENT, QueryOptions
from repro.engine.result import QueryResult
from repro.engine.session import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> engine)
    from repro.serve.catalog import Catalog
    from repro.serve.server import Server
    from repro.serve.service import QueryService
    from repro.serve.snapshot import SnapshotUpdater

__all__ = ["Database"]


class Database:
    """A stored document, versioned by the catalog it owns.

    ``slow_query_ms`` (or a later :meth:`configure_slow_log` call)
    enables the slow-query log: every query whose wall time crosses the
    threshold is recorded with its text, strategy, chosen plan and the
    run's work counters — see :class:`~repro.obs.slowlog.SlowQueryLog`.
    """

    def __init__(self, doc: Document,
                 slow_query_ms: float | None = None) -> None:
        from repro.serve.catalog import Catalog

        #: The one owner of the document's versions, their plan cache
        #: and scan pools; ``doc`` is snapshot 1.
        self.catalog: Catalog = Catalog()
        self.catalog.register(DEFAULT_DOCUMENT, doc)
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

    @property
    def doc(self) -> Document:
        """The current version's document (never mutate it in place:
        write through :meth:`updater`)."""
        return self.catalog.current(DEFAULT_DOCUMENT).doc

    @property
    def engine(self) -> Engine:
        """The current version's engine (its plan cache is the
        catalog's, shared by every version).  It is valid until the next
        commit: once that retires its version, every call on it raises
        :class:`~repro.errors.UsageError` — read ``db.engine`` again."""
        with self._reading() as engine:
            return engine

    @contextmanager
    def _reading(self) -> Iterator[Engine]:
        """The current snapshot's engine, pinned for one read."""
        catalog = self.catalog
        snapshot = catalog.pin(DEFAULT_DOCUMENT)
        try:
            yield catalog.engine_for(snapshot)
        finally:
            catalog.unpin(snapshot)

    # ------------------------------------------------------------------
    # Construction / persistence.
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(cls, text: str) -> Database:
        """Build a database from XML text."""
        return cls(parse(text))

    @classmethod
    def open(cls, path: str | Path) -> Database:
        """Open a database stored with :meth:`save` (only the document
        is persisted: the plan cache starts empty)."""
        return cls(load(Path(path).read_bytes()))

    def save(self, path: str | Path) -> int:
        """Persist the current version to the succinct binary format;
        returns bytes written."""
        with self._reading() as engine:
            payload = dump(engine.doc)
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

        Every execution runs on the version current at that call; after
        a commit that changes the document's shape the first one
        re-plans through the shared plan cache.
        """
        with self._reading() as engine:
            prepared = engine.prepare(text, strategy=strategy,
                                      executor=executor)
        prepared._reading = self._reading
        return prepared

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
        active.  The plan cache is the catalog's, so it counts the
        service's reads too.  Per-strategy latency lives in the metrics
        registry (``repro_query_latency_ms{strategy}``), per-query
        records in the slow log.

        The payload is versioned: ``"schema"`` at the top level is
        :data:`~repro.obs.metrics.STATS_SCHEMA` (shared with
        ``QueryService.stats()`` and the network ``stats`` frame; the
        schema is documented in DESIGN.md).

        .. note:: this used to be a property aliasing the document
           statistics; those now live at :attr:`doc_stats`.
        """
        with self._reading() as reader:
            doc_stats = reader.stats
            fingerprint = reader.summary.fingerprint()
            plan_cache = reader.plan_cache.stats()
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
            "plan_cache": plan_cache,
            "slow_queries": (
                None if self.slow_log is None else {
                    "threshold_ms": self.slow_log.threshold_ms,
                    "entries": len(self.slow_log),
                }),
            "service": (self._service.stats()
                        if self._service is not None
                        and not self._service.closed else None),
        }

    def updater(self) -> SnapshotUpdater:
        """A copy-on-write update batch (see :meth:`Catalog.updater
        <repro.serve.catalog.Catalog.updater>`): ``with db.updater() as
        up:`` publishes the next version on a clean exit, the same way a
        running service's ``updater()`` does."""
        return self.catalog.updater(DEFAULT_DOCUMENT)

    # ------------------------------------------------------------------
    # Serving and lifecycle.
    # ------------------------------------------------------------------

    def serve(self, workers: int = 4, *,
              max_queue: int = 64,
              default_timeout_ms: float | None = None,
              result_cache: int | None = None) -> QueryService:
        """Start (or return) the concurrent query service for this
        database.

        The service serves this database's catalog: queries go through
        a bounded worker pool with admission control and per-query
        deadlines, and updates through copy-on-write snapshot batches —
        see :mod:`repro.serve`.  ``result_cache`` is the result cache's
        byte budget: ``None`` for the default 16 MiB, an ``int`` >= 0
        for another, ``0`` for no cache (see
        :class:`~repro.serve.cachepolicy.ResultCacheStorage`).  The
        service is owned by the database: :meth:`close` drains and
        stops it; closing it earlier leaves the catalog, and every
        version it published, with the database.  Calling ``serve()``
        again while the service runs returns the same instance (the
        knobs of the first call win).
        """
        if self._closed:
            raise UsageError("database is closed")
        if self._service is not None and not self._service.closed:
            return self._service
        from repro.serve.service import QueryService

        self._service = QueryService(
            self.catalog, workers=workers, max_queue=max_queue,
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
        any), close the catalog (its scan pools and the current
        version's arena file), and close the slow-query log.
        Idempotent; the database refuses new serving after close, but
        plain serial :meth:`query` calls keep working (they hold no
        external resources)."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        if self._service is not None:
            self._service.close(drain=True)
        self.catalog.close()
        if self.slow_log is not None:
            self.slow_log.close()

    def __enter__(self) -> Database:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        stats = self.doc_stats
        return (f"<Database {stats.n_elements} elements, "
                f"{stats.n_distinct_tags} tags, "
                f"{'recursive' if stats.recursive else 'flat'}>")
