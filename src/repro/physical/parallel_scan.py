"""Partition-parallel merged NoK evaluation: one kernel, three drivers.

The document is cut into subtree-aligned partitions
(:mod:`repro.xmlkit.partition`); every partition runs
:func:`~repro.physical.nok.scan_range` — the serial merged scan's own
scan — on its nid range into its own run tables; the per-NoK root
lists are concatenated in partition order, and the tables merged in
that order with ``dict.update`` (a parent match belongs to one
partition, so no two tables share a parent).

Correctness rests on Theorem 1's order argument: the serial scan emits
matches in document order, each partition is a contiguous slice of that
order, and the partitions tile the arena — so concatenation in
partition order *is* the serial output, bit for bit.  The differential
test suite asserts exactly that, match list by match list.

The drivers differ only in where a partition runs — the calling thread
(one partition: the serial scan), a thread of a
:class:`~concurrent.futures.ThreadPoolExecutor` over the live object
tree, or a worker process over the mmap-shared arena
(:mod:`repro.physical.process_scan`).  Each hands back one
:class:`PartitionOutcome` per partition; everything after that — the
counter fold, the first-error-in-partition-order raise, the
``partition-scan`` spans, the operator metrics — is this module's
coordinator, once.

Deviations from the serial operator, by design:

* ``counters.scans_started`` grows by one per partition (each opens its
  own scan); ``nodes_scanned`` still counts every arena slot once.
* The work ``budget`` is an approximate **global** cap: partitions fold
  their scanned count into one shared cell once per
  :class:`PartitionToken` stride and abort once the total exceeds the
  budget.  Keeping the synchronized counter off the hottest loop means
  the cap can overshoot by at most ``partitions × stride`` nodes —
  bounded, unlike a per-partition cap, which could overshoot by
  ``partitions × budget``.
* A ``#root``-anchored NoK (``/r/a/b``) is matched only by the
  partition that starts at slot 0, so it matches once per document.

Cancellation stays cooperative: a deadline or cancel is observed within
one stride in every partition.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections.abc import Callable, MutableSequence
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import DNFError, QueryCancelledError, ReproError, UsageError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Span, Tracer
from repro.pattern.decompose import NoKTree
from repro.physical.nok import scan_range
from repro.physical.nok_merge import matched_once, merged_scan, share_twins
from repro.physical.structural import count_operator
from repro.xmlkit.partition import Partition, partition_document
from repro.xmlkit.storage import CancellationToken, ScanCounters
from repro.xmlkit.tree import Document, Node
from repro.xpath.compile import Bindings
from repro.algebra.nested_list import Groups, add_table

if TYPE_CHECKING:
    from repro.engine.backend import ExecutionBackend
    from repro.physical.process_scan import ProcessScanBackend

__all__ = ["PartitionOutcome", "PartitionToken", "ScanPools", "SharedAbort",
           "parallel_merged_scan", "run_partition"]

_PARTITION_SCANS = REGISTRY.counter(
    "repro_partition_scans_total",
    "Partition scan tasks executed by the parallel merged scan")
_PARTITION_FALLBACKS = REGISTRY.counter(
    "repro_partition_fallbacks_total",
    "Parallel scan requests that collapsed to a single-partition "
    "serial scan")


# ----------------------------------------------------------------------
# One partition: the kernel on a nid range, paced by a PartitionToken;
# and the threads driver, which needs nothing more.
# ----------------------------------------------------------------------

@dataclass
class SharedAbort:
    """What the partitions of one query run share, wherever they run."""

    budget: int | None
    deadline: float | None
    timeout_ms: float | None
    #: True once the query was cancelled (threads: the caller's token)
    #: or the process driver raised the slot's cancel byte.
    cancelled: Callable[[], bool]
    #: The query-wide scanned-node total is ``cells[index]``, guarded by
    #: ``lock``: a one-element list for threads, one slot of the pool's
    #: shared array for worker processes.
    cells: MutableSequence[int]
    index: int
    lock: AbstractContextManager


class PartitionToken(CancellationToken):
    """One partition's view of its query's :class:`SharedAbort` state.

    The scan checkpoints it like any token; every stride :meth:`check`
    looks at the shared cancel flag and the absolute deadline
    (CLOCK_MONOTONIC is system-wide on Linux, so the coordinator's
    deadline transfers verbatim to a worker process) and folds the
    nodes this partition scanned since the last check into the shared
    total — the approximate global work budget.  Constructing it
    installs it as ``counters.cancellation``.
    """

    __slots__ = ("_counters", "_shared", "_folded")

    def __init__(self, counters: ScanCounters, shared: SharedAbort) -> None:
        super().__init__()
        self.deadline = shared.deadline
        self.timeout_ms = shared.timeout_ms
        self._counters = counters
        self._shared = shared
        self._folded = 0
        counters.cancellation = self

    def check(self) -> None:
        shared = self._shared
        if shared.cancelled():
            raise QueryCancelledError()
        super().check()
        delta = self._counters.nodes_scanned - self._folded
        if shared.budget is not None and delta:
            self._folded += delta
            with shared.lock:
                shared.cells[shared.index] += delta
                total = shared.cells[shared.index]
            if total > shared.budget:
                self._counters.trip_budget()
                raise DNFError("parallel scan exceeded the global "
                               "work budget", budget=shared.budget)


@dataclass
class PartitionOutcome:
    """What a driver hands the coordinator for one partition."""

    #: ``{nok_id: roots}`` over the coordinator's document (empty
    #: when the partition aborted).
    matches: dict[int, list[Node]] = field(default_factory=dict)
    #: The partition's run tables, over the same nodes.
    groups: Groups = field(default_factory=dict)
    #: The partition's private work, per-NoK work already folded in.
    counters: ScanCounters = field(default_factory=ScanCounters)
    per_nok: dict[int, ScanCounters] | None = None
    #: ``perf_counter_ns`` at start and end of the partition task.
    times: tuple[int, int] = (0, 0)
    #: Set when the partition aborted, or its task died without
    #: reporting (then everything else is empty).
    error: BaseException | None = None


def run_partition(noks: list[NoKTree], doc: Document, start_nid: int,
                  stop_nid: int, shared: SharedAbort | None,
                  want_per_nok: bool, variables: Bindings
                  ) -> PartitionOutcome:
    """Scan ``[start_nid, stop_nid)`` — the body of every partition task.

    Query-level aborts (DNF, deadline, cancel, evaluation errors) come
    back in the outcome rather than raising, so the coordinator can fold
    the partial counters of an aborted partition exactly like the serial
    operator's ``finally``.  ``shared`` is ``None`` when the query has
    nothing to enforce, and the scan then runs without a token.
    ``variables`` are the request's bindings (a worker process is sent
    their atoms) — an argument like the range, since the NoKs are shared.
    """
    outcome = PartitionOutcome(per_nok={} if want_per_nok else None)
    token = (PartitionToken(outcome.counters, shared)
             if shared is not None else None)
    started = time.perf_counter_ns()
    try:
        outcome.matches = scan_range(noks, doc, outcome.counters,
                                     outcome.per_nok, start_nid, stop_nid,
                                     variables, outcome.groups)
        # The tail shorter than a stride still counts against the
        # budget, and a query already cancelled must not report success.
        if token is not None:
            token.check()
    except ReproError as exc:
        outcome.error = exc
    outcome.times = (started, time.perf_counter_ns())
    return outcome


def _scan_on_threads(pool: ThreadPoolExecutor, noks: list[NoKTree],
                     doc: Document, partitions: list[Partition],
                     counters: ScanCounters, want_per_nok: bool,
                     variables: Bindings) -> list[PartitionOutcome]:
    """The threads driver: every partition on ``pool``, outcomes in order."""
    token = counters.cancellation
    shared = None
    # No budget and no token: nothing can abort the query, so the
    # partitions skip the per-node checkpoint altogether.
    if counters.budget is not None or token is not None:
        shared = SharedAbort(
            counters.budget, token.deadline if token else None,
            token.timeout_ms if token else None,
            cancelled=lambda: token is not None and token.cancelled,
            cells=[counters.nodes_scanned], index=0, lock=threading.Lock())
    futures = [pool.submit(run_partition, noks, doc, part.start_nid,
                           part.stop_nid, shared, want_per_nok, variables)
               for part in partitions]
    wait(futures)
    outcomes = []
    for future in futures:
        error = future.exception()
        outcomes.append(future.result() if error is None
                        else PartitionOutcome(error=error))
    return outcomes


# ----------------------------------------------------------------------
# Pools: one lazy owner object per stack, one process-wide fallback.
# ----------------------------------------------------------------------

class ScanPools:
    """Owner object for one stack's scan executors, both lazy.

    Engines, databases and query services each hold one; ``close()``
    drains and shuts down whatever was actually spawned (satisfying the
    deterministic-cleanup contract without paying for pools that were
    never used).  Closed pools spawn nothing again: asking for one
    raises :class:`~repro.errors.UsageError`, so no thread or worker
    process outlives its owner's ``close()``.
    """

    def __init__(self, thread_workers: int | None = None,
                 process_workers: int | None = None) -> None:
        self._thread_workers = thread_workers
        self._process_workers = process_workers
        self._lock = threading.Lock()
        self._threads: ThreadPoolExecutor | None = None
        self._processes: ProcessScanBackend | None = None
        self._closed = False

    def _refuse_if_closed(self) -> None:
        if self._closed:
            raise UsageError("scan pools are closed: a partitioned scan "
                             "needs an open database or engine")

    def thread_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            self._refuse_if_closed()
            if self._threads is None:
                workers = self._thread_workers or min(8, os.cpu_count() or 4)
                self._threads = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-scan")
            return self._threads

    def process_backend(self) -> ProcessScanBackend:
        from repro.physical.process_scan import ProcessScanBackend

        with self._lock:
            self._refuse_if_closed()
            if self._processes is None:
                workers = self._process_workers or min(4, os.cpu_count() or 1)
                self._processes = ProcessScanBackend(max_workers=workers)
            return self._processes

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            threads, self._threads = self._threads, None
            processes, self._processes = self._processes, None
        if threads is not None:
            threads.shutdown(wait=wait, cancel_futures=True)
        if processes is not None:
            processes.close(wait=wait)


#: Process-wide fallback for engines without an owner stack.  Serving
#: stacks (``Database``, ``QueryService``) pass their own instead, so
#: their ``close()`` is deterministic.
_SHARED_POOLS = ScanPools()
atexit.register(_SHARED_POOLS.close)


# ----------------------------------------------------------------------
# The coordinator.
# ----------------------------------------------------------------------

def parallel_merged_scan(noks: list[NoKTree], doc: Document,
                         counters: ScanCounters | None = None,
                         per_nok: dict[int, ScanCounters] | None = None,
                         *,
                         variables: Bindings,
                         backend: ExecutionBackend,
                         pools: ScanPools | None = None,
                         partitions: list[Partition] | None = None,
                         tracer: Tracer | None = None,
                         groups: Groups | None = None,
                         ) -> dict[int, list[Node]]:
    """Evaluate several NoK pattern trees over partition-parallel scans.

    Same contract as :func:`~repro.physical.nok_merge.merged_scan`
    (per-NoK root lists in document order, run tables into ``groups``,
    a fresh dict by default; optional ``per_nok`` work
    attribution folded back into the shared ``counters``; ``variables``
    the request's bindings, required here: a partitioned scan always
    serves a request), evaluated as one scan task per partition.
    ``backend`` names the driver and the fan-out —
    ``backend.parallelism`` partitions on the process pool for
    ``kind="processes"``, on the thread pool otherwise — and ``pools``
    owns those pools (``None``: the process-wide fallback).

    ``partitions`` overrides the size-driven partitioning (tests use
    this to force fine-grained cuts on small documents); with a single
    partition the call degenerates to the serial merged scan.
    """
    if counters is None:
        counters = ScanCounters()
    if groups is None:
        groups = {}
    if partitions is None:
        partitions = partition_document(doc, backend.parallelism)
    if len(partitions) <= 1:
        _PARTITION_FALLBACKS.inc()
        return merged_scan(noks, doc, counters, per_nok, variables, groups)

    # A token tripped before dispatch must fail the query up front —
    # the serial scan would raise at its first checkpoint.
    if counters.cancellation is not None:
        counters.cancellation.check()
    if pools is None:
        pools = _SHARED_POOLS
    scanned, twins = matched_once(noks)    # no partition matches a twin
    driver = (pools.process_backend().scan if backend.kind == "processes"
              else partial(_scan_on_threads, pools.thread_pool()))
    outcomes = driver(scanned, doc, partitions, counters,
                      per_nok is not None, variables)

    try:
        # Surface the first failure in partition order (deterministic
        # regardless of scheduling); DNF/timeout/cancel all propagate
        # exactly as they do from the serial scan.
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
    finally:
        # Fold every partition's work into the shared totals — aborted
        # partitions included, mirroring the serial operator's
        # ``finally`` merge of private per-NoK counters.
        for outcome in outcomes:
            counters.merge(outcome.counters)
            if per_nok is not None and outcome.per_nok is not None:
                for nok_id, private in outcome.per_nok.items():
                    per_nok.setdefault(nok_id, ScanCounters()).merge(private)
            _PARTITION_SCANS.inc()
        # The tracer's stack is owned by this thread, so partition tasks
        # only record raw timestamps; their spans are materialised here,
        # after the barrier, preserving measured wall time.
        parent = tracer.current() if tracer is not None else None
        if parent is not None:
            for part, outcome in zip(partitions, outcomes):
                span = Span("partition-scan", {
                    "partition": part.index,
                    "start_nid": part.start_nid,
                    "stop_nid": part.stop_nid,
                    "backend": backend.kind,
                    "matches": sum(len(v) for v in outcome.matches.values()),
                })
                span.start_ns, span.end_ns = outcome.times
                parent.children.append(span)

    results: dict[int, list[Node]] = {nok.nok_id: [] for nok in scanned}
    for outcome in outcomes:
        for nok_id, roots in outcome.matches.items():
            results[nok_id].extend(roots)
        for vid, table in outcome.groups.items():
            add_table(groups, vid, table)
    share_twins(twins, scanned, results, groups)
    count_operator("parallel_scan", sum(map(len, results.values())))
    return results
