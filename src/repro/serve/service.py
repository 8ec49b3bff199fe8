"""The concurrent query service: a bounded worker pool over a catalog.

:class:`QueryService` is the serving front end the ROADMAP's north star
asks for: many queries in flight against many documents, each executing
against the snapshot that was current at dequeue time, with

* **admission control** — a bounded queue; submissions past
  ``max_queue`` fail fast with
  :class:`~repro.errors.ServiceOverloadedError` instead of piling up;
* **deadlines** — ``timeout_ms`` (per call or service default) is
  measured from submission; expiry is detected both in the queue (the
  request never runs) and cooperatively during execution via the
  cancellation checkpoints in the physical operators' scan loops;
* **snapshot-sound result caching** — snapshots are immutable, so a
  result keyed by ``(document, snapshot id, query, strategy)`` can be
  replayed verbatim until that snapshot retires (retirement purges the
  entries).  Combined with in-flight **coalescing** (identical
  concurrent requests share one execution) this is where the service's
  aggregate throughput on read-heavy workloads comes from — Python
  threads do not parallelize CPU-bound query evaluation, they
  *deduplicate* it.  Plans, unlike results, are not per snapshot: the
  catalog's plan cache is keyed by document shape, so a commit that
  keeps the shape keeps every plan warm.

Every submission returns a :class:`concurrent.futures.Future` resolving
to a :class:`ServeResult` — the query result plus the snapshot it ran
against and the wait/run split.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial

from repro.engine.backend import ExecutionBackend
from repro.engine.request import (DEFAULT_DOCUMENT, QueryKey, QueryOptions,
                                  check_timeout_ms, require)
from repro.engine.result import QueryResult
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceOverloadedError,
    UsageError,
)
from repro.obs.metrics import REGISTRY, STATS_SCHEMA
from repro.obs.slowlog import SlowQueryLog
from repro.serve.cachepolicy import DEFAULT_RESULT_CACHE_BYTES, ResultCacheStorage
from repro.serve.catalog import Catalog
from repro.serve.protocol import encode_fragment
from repro.serve.snapshot import Snapshot, SnapshotUpdater
from repro.xmlkit.tree import Document

__all__ = ["QueryService", "ServeResult", "STATS_KEYS"]

_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_service_queue_depth", "Requests waiting in the service queue")
_INFLIGHT = REGISTRY.gauge(
    "repro_service_inflight", "Requests currently executing on workers")
_REJECTIONS = REGISTRY.counter(
    "repro_service_rejections_total",
    "Submissions rejected by admission control (queue full)")
_TIMEOUTS = REGISTRY.counter(
    "repro_query_timeout_total", "Queries aborted by deadline expiry")
_COALESCED = REGISTRY.counter(
    "repro_service_coalesced_total",
    "Submissions attached to an identical in-flight request")
_WAIT_MS = REGISTRY.histogram(
    "repro_service_wait_ms", "Queue wait before execution, milliseconds")
_RUN_MS = REGISTRY.histogram(
    "repro_service_run_ms", "Execution time on a worker, milliseconds")
_UTILIZATION = REGISTRY.gauge(
    "repro_service_worker_utilization",
    "Fraction of worker-seconds spent executing since service start")
_SERVICE_TIMEOUTS = REGISTRY.counter(
    "repro_service_timeouts_total",
    "Served queries that missed their deadline (in queue or executing)")

#: Per-service telemetry counter names (the local mirror of the
#: process-wide families above, so two services never mix numbers).
_SERVICE_COUNTERS = ("submitted", "completed", "failed", "timeouts",
                     "rejections", "coalesced", "slow_queries")

#: The top-level keys :meth:`QueryService.stats` writes itself, in
#: order; :meth:`QueryService.add_stats_section` refuses each of them.
STATS_KEYS = ("schema", "queue_depth", "inflight", "result_cache_size",
              "workers", "uptime_s", "worker_utilization", "counters",
              "result_cache", "documents", "slow_queries")

#: What a :meth:`QueryService.query_batch` mapping item may carry.
_BATCH_KEYS = frozenset({"text", "doc", "strategy", "params", "timeout_ms",
                         "executor"})


@dataclass
class ServeResult:
    """One served query: the result plus its serving metadata.

    ``snapshot`` is the exact version the query ran against — callers
    can replay the query serially on ``snapshot.doc`` and must get a
    bit-identical result (the isolation contract the stress test pins).
    ``fragments`` are the items' wire bytes
    (:func:`~repro.serve.protocol.encode_fragment`) when the request was
    cacheable — built once at admission, or the cache entry's own — and
    ``None`` otherwise.
    """

    result: QueryResult
    snapshot: Snapshot
    wait_ms: float
    run_ms: float
    cached: bool = False
    fragments: Sequence[bytes] | None = None

    @property
    def items(self) -> list:
        return self.result.items

    @property
    def snapshot_id(self) -> int:
        return self.snapshot.snapshot_id

    def serialize(self) -> str:
        return self.result.serialize()

    def __len__(self) -> int:
        return len(self.result)

    def __iter__(self):
        return iter(self.result.items)


class _Request:
    """One queued execution (one future; possibly many submitters)."""

    __slots__ = ("text", "doc", "options", "key", "client", "slot",
                 "deadline", "submitted", "future")

    def __init__(self, text: str, doc: str, options: QueryOptions,
                 key: QueryKey, client: str | None = None) -> None:
        self.text = text
        self.doc = doc
        self.options = options
        self.key = key
        #: Caller identity (network connection + request id); tags the
        #: slow-query log so remote offenders are attributable.
        self.client = client
        self.submitted = time.perf_counter()
        self.deadline = (self.submitted + options.timeout_ms / 1000.0
                         if options.timeout_ms is not None else None)
        self.future: Future = Future()
        #: Coalescing slot; ``None`` disables coalescing and result
        #: caching (parameterized or traced requests are never shared).
        self.slot = (key.coalescing(doc)
                     if options.params is None and not options.trace
                     else None)


class QueryService:
    """A bounded worker pool serving queries over catalog snapshots.

    Parameters
    ----------
    source:
        A :class:`~repro.serve.catalog.Catalog` (served as-is and left
        open by :meth:`close`: its owner, e.g. a
        :class:`~repro.engine.database.Database`, closes it), or a
        :class:`~repro.xmlkit.tree.Document` / XML text registered as
        ``"main"`` (:data:`~repro.engine.request.DEFAULT_DOCUMENT`, the
        name calls that omit ``doc`` read) in a catalog the service
        builds and closes.
    workers:
        Worker thread count (concurrent executions), an ``int`` >= 1.
    max_queue:
        Admission bound on *waiting* requests, an ``int`` >= 1;
        ``submit`` past it raises
        :class:`~repro.errors.ServiceOverloadedError`.
    default_timeout_ms:
        Deadline applied when a call does not pass ``timeout_ms``
        (checked by the same rule as ``timeout_ms``).
    result_cache:
        The byte budget of the snapshot-keyed result cache
        (:class:`~repro.serve.cachepolicy.ResultCacheStorage`): ``None``
        for the default 16 MiB, an ``int`` >= 0 for another budget,
        ``0`` for no cache.  Anything else is a
        :class:`~repro.errors.UsageError`.
    slow_query_ms / slow_log:
        Route served queries through a slow-query log: either a
        threshold for a service-owned log, or an existing
        :class:`~repro.obs.slowlog.SlowQueryLog` to share (what
        :meth:`Database.serve <repro.engine.database.Database.serve>`
        passes).  Served records are tagged with the snapshot id, the
        executed strategy and the deadline state (``none``/``ok``/
        ``expired``).
    """

    def __init__(self, source: Catalog | Document | str, *,
                 workers: int = 4, max_queue: int = 64,
                 default_timeout_ms: float | None = None,
                 result_cache: int | None = None,
                 slow_query_ms: float | None = None,
                 slow_log: SlowQueryLog | None = None) -> None:
        require("workers", workers, "an int >= 1", minimum=1)
        require("max_queue", max_queue, "an int >= 1", minimum=1)
        check_timeout_ms("default_timeout_ms", default_timeout_ms)
        if result_cache is None:
            result_cache = DEFAULT_RESULT_CACHE_BYTES
        require("result_cache", result_cache,
                "None or a byte budget (an int >= 0)")
        #: :meth:`close` closes the catalog only when it was built here.
        self._owns_catalog = not isinstance(source, Catalog)
        if isinstance(source, Catalog):
            self.catalog = source
        else:
            self.catalog = Catalog()
            self.catalog.register(DEFAULT_DOCUMENT, source)
        self.default_timeout_ms = default_timeout_ms
        self.max_queue = max_queue

        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._inflight_count = 0
        self._inflight: dict[tuple, Future] = {}
        self._closed = False

        #: Byte-accounted result cache (``None`` when disabled).  The
        #: catalog's retire hook invalidates synchronously, so a retired
        #: snapshot's entries are gone before ``commit`` returns.
        self.result_cache: ResultCacheStorage | None = (
            ResultCacheStorage(result_cache) if result_cache else None)
        self._stop_purging = self.catalog.on_retire(self._purge_results)

        self.slow_log = (slow_log if slow_log is not None
                         else SlowQueryLog(slow_query_ms)
                         if slow_query_ms is not None else None)
        #: Extra ``stats()`` sections registered by collaborators (the
        #: network server publishes its admission controller here).
        self._stats_sections: dict[str, Callable[[], dict]] = {}
        #: Per-service telemetry (the process metrics aggregate across
        #: services; these stay local so ``stats()`` is *this* service).
        self._count_lock = threading.Lock()
        self._counts = dict.fromkeys(_SERVICE_COUNTERS, 0)
        self._started = time.perf_counter()
        self._busy_ns = 0

        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-serve-{i}",
                             daemon=True)
            for i in range(workers)]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def submit(self, text: str, *, doc: str | None = None,
               strategy: str = "auto", params: Mapping | None = None,
               timeout_ms: float | None = None,
               trace: bool = False,
               executor: ExecutionBackend | str | None = None,
               client: str | None = None) -> Future:
        """Enqueue one query; returns a future of :class:`ServeResult`.

        An identical un-parameterized, un-traced request already queued
        or executing is *coalesced*: the same future is returned and the
        query runs once.  ``executor`` selects the intra-query execution
        backend (see :meth:`Engine.query`); partition scans run on the
        catalog's scan pools, separate from the serve workers, so
        parallel queries never deadlock against admission control.
        ``client`` is an opaque caller identity (the network server
        passes connection#request ids) that tags slow-query records.
        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        queue is full and :class:`~repro.errors.UsageError` for an
        unknown ``doc`` or after :meth:`close` (nothing is queued or
        counted then).
        """
        return self._submit(text, doc, QueryOptions(
            strategy, params, timeout_ms, executor, trace=trace), client)

    def _submit(self, text: str, doc: str | None, options: QueryOptions,
                client: str | None = None) -> Future:
        """:meth:`submit` for options already built and validated (the
        network server decodes them from the request frame)."""
        return self._enqueue([self._request(text, doc, options, client)])[0]

    def query(self, text: str, *, doc: str | None = None,
              strategy: str = "auto", params: Mapping | None = None,
              timeout_ms: float | None = None,
              trace: bool = False,
              executor: ExecutionBackend | str | None = None,
              client: str | None = None) -> ServeResult:
        """Synchronous :meth:`submit` — blocks for the result."""
        return self.submit(text, doc=doc, strategy=strategy, params=params,
                           timeout_ms=timeout_ms, trace=trace,
                           executor=executor, client=client).result()

    def query_batch(self, queries: Iterable[str | Mapping], *,
                    doc: str | None = None, strategy: str = "auto",
                    timeout_ms: float | None = None,
                    executor: ExecutionBackend | str | None = None
                    ) -> list[ServeResult]:
        """Submit a batch atomically and wait for every result.

        ``queries`` items are query strings or mappings with ``text``
        plus optional ``doc`` / ``strategy`` / ``params`` /
        ``timeout_ms`` / ``executor`` overrides.  Admission is
        all-or-nothing: either the whole batch fits in the queue
        (duplicates coalesce into one slot) or nothing is enqueued and
        :class:`~repro.errors.ServiceOverloadedError` is raised — and an
        item of another type, without a ``text`` string or with any
        other key raises :class:`~repro.errors.UsageError` before
        anything is enqueued.  Results come back in submission order; a
        failed query re-raises its error here.
        """
        requests = []
        for spec in queries:
            if isinstance(spec, str):
                spec = {"text": spec}
            if not isinstance(spec, Mapping) \
                    or not isinstance(spec.get("text"), str) \
                    or spec.keys() - _BATCH_KEYS:
                raise UsageError(
                    f"query_batch item {spec!r}: expected a query string, "
                    "or a mapping with a 'text' string and only the keys "
                    f"{sorted(_BATCH_KEYS)}")
            requests.append(self._request(
                spec["text"], spec.get("doc", doc), QueryOptions(
                    spec.get("strategy", strategy), spec.get("params"),
                    spec.get("timeout_ms", timeout_ms),
                    spec.get("executor", executor))))
        futures = self._enqueue(requests)
        return [future.result() for future in futures]

    def updater(self, doc: str | None = None) -> SnapshotUpdater:
        """A copy-on-write update batch (see :meth:`Catalog.updater`)."""
        return self.catalog.updater(doc or DEFAULT_DOCUMENT)

    def configure_slow_log(self, threshold_ms: float = 100.0,
                           path=None, max_entries: int = 1000) -> SlowQueryLog:
        """Enable (or reconfigure) the service's slow-query log."""
        self.slow_log = SlowQueryLog(threshold_ms, path, max_entries)
        return self.slow_log

    def _count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self._counts[name] += amount

    def close(self, drain: bool = True) -> None:
        """Stop the service. Idempotent.

        ``drain=True`` (default) serves every queued request first;
        ``drain=False`` fails queued requests with
        :class:`~repro.errors.QueryCancelledError`.  Either way, no new
        submissions are admitted and the workers exit.
        """
        with self._cond:
            first, self._closed = not self._closed, True
            pending: list[_Request] = []
            if first and drain:
                while self._queue or self._inflight_count:
                    self._cond.wait()
            elif first:
                pending = list(self._queue)
                self._queue.clear()
                _QUEUE_DEPTH.set(0)
            self._cond.notify_all()
        for request in pending:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    QueryCancelledError("service closed before execution"))
        for thread in self._workers:
            thread.join()
        if first:
            # The catalog and its versions outlive the service unless
            # the service built it; either way, the catalog must not
            # keep this dead result cache reachable.
            self._stop_purging()
            if self._owns_catalog:
                self.catalog.close()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __enter__(self) -> QueryService:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def add_stats_section(self, name: str,
                          provider: Callable[[], dict]) -> None:
        """Register an extra :meth:`stats` section under ``name``.

        The network server uses this to publish its admission
        controller's decisions inside ``service.stats()``.  The keys
        :meth:`stats` writes itself (:data:`STATS_KEYS`) are reserved.
        """
        if name in STATS_KEYS:
            raise UsageError(f"stats section name {name!r} is reserved")
        self._stats_sections[name] = provider

    def remove_stats_section(self, name: str) -> None:
        """Drop a section registered with :meth:`add_stats_section`."""
        self._stats_sections.pop(name, None)

    def stats(self) -> dict:
        """A structured JSON snapshot of the serving state.

        The payload is versioned: ``"schema"`` at the top level is
        :data:`~repro.obs.metrics.STATS_SCHEMA` (the shape shared with
        :meth:`Database.stats <repro.engine.database.Database.stats>`
        and the ``stats`` wire frame; documented in DESIGN.md).  The
        legacy flat occupancy keys (``queue_depth`` / ``inflight`` /
        ``result_cache_size`` / ``workers``) stay at the top level; on
        top of them: service uptime and worker utilization (busy
        worker-seconds over elapsed worker-seconds), the per-service
        telemetry counters, result-cache hit ratios, one section per
        registered document with its current snapshot id and shared
        plan-cache statistics, plus any sections registered via
        :meth:`add_stats_section` (the network server's ``server``
        section, with the adaptive-admission state, appears here).
        The built-in keys are exactly :data:`STATS_KEYS`, in order.
        """
        with self._cond:
            depth, inflight = len(self._queue), self._inflight_count
            busy_ns = self._busy_ns
        cached = len(self.result_cache) if self.result_cache is not None else 0
        with self._count_lock:
            counts = dict(self._counts)
        uptime_s = max(time.perf_counter() - self._started, 1e-9)
        utilization = min(
            busy_ns / 1e9 / (uptime_s * len(self._workers)), 1.0)
        _UTILIZATION.set(utilization)
        documents = {}
        for name in self.catalog.names():
            documents[name] = {
                "snapshot_id": self.catalog.current(name).snapshot_id,
                "plan_cache": self.catalog.plan_cache(name).stats(),
            }
        payload = dict(zip(STATS_KEYS, (
            STATS_SCHEMA,
            depth, inflight, cached, len(self._workers),
            round(uptime_s, 3), round(utilization, 4),
            counts,
            (self.result_cache.stats()
             if self.result_cache is not None else {"enabled": False}),
            documents,
            (None if self.slow_log is None else {
                "threshold_ms": self.slow_log.threshold_ms,
                "entries": len(self.slow_log)}),
        ), strict=True))
        for name, provider in list(self._stats_sections.items()):
            payload[name] = provider()
        return payload

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------

    def _request(self, text: str, doc: str | None, options: QueryOptions,
                 client: str | None = None) -> _Request:
        """Apply the service defaults and build the request identity —
        once; the engine is handed both instead of re-deriving them.
        An unknown document raises here, before anything is queued."""
        doc = doc or DEFAULT_DOCUMENT
        self.catalog.current(doc)           # UsageError: unknown document
        if options.timeout_ms is None and self.default_timeout_ms is not None:
            options = options.with_timeout(self.default_timeout_ms)
        return _Request(text, doc, options, QueryKey(text, options), client)

    def _enqueue(self, requests: list[_Request]) -> list[Future]:
        with self._cond:
            if self._closed:
                raise UsageError("query service is closed")
            futures: list[Future] = []
            fresh: list[_Request] = []
            batch_keys: dict[tuple, Future] = {}
            for request in requests:
                shared = None
                if request.slot is not None:
                    shared = (self._inflight.get(request.slot)
                              or batch_keys.get(request.slot))
                if shared is not None:
                    _COALESCED.inc()
                    self._count("submitted")
                    self._count("coalesced")
                    futures.append(shared)
                    continue
                fresh.append(request)
                futures.append(request.future)
                if request.slot is not None:
                    batch_keys[request.slot] = request.future
            if len(self._queue) + len(fresh) > self.max_queue:
                _REJECTIONS.inc(len(fresh))
                self._count("rejections", len(fresh))
                raise ServiceOverloadedError(queue_depth=len(self._queue))
            for request in fresh:
                self._count("submitted")
                self._queue.append(request)
                if request.slot is not None:
                    self._inflight[request.slot] = request.future
            _QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify_all()
            return futures

    # ------------------------------------------------------------------
    # Worker loop.
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return      # closed and drained
                request = self._queue.popleft()
                _QUEUE_DEPTH.set(len(self._queue))
                self._inflight_count += 1
                _INFLIGHT.set(self._inflight_count)
            busy_started = time.perf_counter_ns()
            try:
                self._serve(request)
            finally:
                busy = time.perf_counter_ns() - busy_started
                with self._cond:
                    self._busy_ns += busy
                    self._inflight_count -= 1
                    _INFLIGHT.set(self._inflight_count)
                    self._release_slot_locked(request)
                    self._cond.notify_all()

    def _release_slot_locked(self, request: _Request) -> None:
        """Stop coalescing new submissions onto ``request`` (lock held)."""
        if request.slot is not None and \
                self._inflight.get(request.slot) is request.future:
            del self._inflight[request.slot]

    def _settle(self, request: _Request, served: ServeResult | None = None,
                error: BaseException | None = None) -> None:
        """Resolve the request's future once its coalescing slot is
        released: an identical submission that arrives after the answer
        exists then reads the result cache (a ``cached`` hit) instead of
        attaching to the finished future."""
        with self._cond:
            self._release_slot_locked(request)
        if error is not None:
            request.future.set_exception(error)
        else:
            request.future.set_result(served)

    def _serve(self, request: _Request) -> None:
        if not request.future.set_running_or_notify_cancel():
            return
        now = time.perf_counter()
        wait_ms = (now - request.submitted) * 1e3
        _WAIT_MS.observe(wait_ms)
        if request.deadline is not None and now >= request.deadline:
            _TIMEOUTS.inc()
            _SERVICE_TIMEOUTS.inc()
            self._count("timeouts")
            if self.slow_log is not None:
                self.slow_log.observe(
                    request.text, request.key.strategy, "(expired in queue)",
                    wait_ms, deadline_state="expired",
                    client=request.client)
            self._settle(request, error=QueryTimeoutError(
                "query expired in the service queue",
                timeout_ms=request.options.timeout_ms))
            return
        try:
            served = self._execute(request, wait_ms)
        except BaseException as exc:  # the future is the error channel
            if isinstance(exc, QueryTimeoutError):
                _SERVICE_TIMEOUTS.inc()
                self._count("timeouts")
            self._count("failed")
            self._settle(request, error=exc)
        else:
            self._count("completed")
            _RUN_MS.observe(served.run_ms)
            self._settle(request, served)

    def _execute(self, request: _Request, wait_ms: float) -> ServeResult:
        snapshot = self.catalog.pin(request.doc)
        started = time.perf_counter()
        try:
            cache_key = None
            if request.slot is not None and self.result_cache is not None:
                cache_key = request.key.result(request.doc,
                                               snapshot.snapshot_id)
                entry = self.result_cache.get(cache_key)
                if entry is not None:
                    run_ms = (time.perf_counter() - started) * 1e3
                    return ServeResult(entry.result, snapshot, wait_ms,
                                       run_ms, cached=True,
                                       fragments=entry.fragments)
            engine = self.catalog.engine_for(snapshot)
            options = request.options
            if request.deadline is not None:
                # Deadlines are measured from submission: the engine
                # gets what the queue wait left of the budget.
                options = options.with_timeout(max(
                    (request.deadline - time.perf_counter()) * 1e3, 0.0))
            result = engine._run(
                request.text, options, request.key,
                slow=None if self.slow_log is None else partial(
                    self._observe_slow, request, snapshot))
            fragments = None
            if cache_key is not None:
                fragments = [encode_fragment(item) for item in result.items]
                self.result_cache.put(cache_key, result, fragments)
            run_ms = (time.perf_counter() - started) * 1e3
            return ServeResult(result, snapshot, wait_ms, run_ms,
                               cached=False, fragments=fragments)
        finally:
            self.catalog.unpin(snapshot)

    def _observe_slow(self, request: _Request, snapshot: Snapshot,
                      plan: str | None, elapsed_ms: float,
                      counters: Mapping[str, int],
                      error: type[BaseException] | None) -> None:
        """The engine's record stage reporting one served execution (its
        own plan, time and counter deltas) to the slow-query log.  Only
        answers and expiries are logged; other failures never were."""
        expired = error is not None and issubclass(error, QueryTimeoutError)
        if self.slow_log is None or (error is not None and not expired):
            return
        record = self.slow_log.observe(
            request.text, request.key.strategy, plan or "?",
            elapsed_ms, counters,
            snapshot_id=snapshot.snapshot_id,
            deadline_state=("expired" if expired else
                            "none" if request.deadline is None else "ok"),
            client=request.client)
        if record is not None:
            self._count("slow_queries")

    # ------------------------------------------------------------------
    # Snapshot-keyed result cache.
    # ------------------------------------------------------------------

    def _purge_results(self, snapshot: Snapshot) -> None:
        """Catalog retire hook: eagerly drop the snapshot's results.

        Runs synchronously inside the retire notification — the audit
        counters in the storage prove no entry of the retired snapshot
        survives past this call.
        """
        if self.result_cache is not None:
            self.result_cache.invalidate_snapshot(
                snapshot.name, snapshot.snapshot_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.stats()
        return (f"<QueryService workers={state['workers']} "
                f"queue={state['queue_depth']} inflight={state['inflight']}>")
