"""Process driver for the partition-parallel merged scan.

Threads bought the Theorem-1 architecture but not the speed — the GIL
serializes the scan.  This module runs the same
partition body (:func:`~repro.physical.parallel_scan.run_partition`) in
**worker processes** over the mmap-shared flat arena
(:mod:`repro.xmlkit.arena`), and holds only what is specific to that:

* a persistent :class:`~concurrent.futures.ProcessPoolExecutor` is kept
  warm per :class:`ProcessScanBackend` owner (engine, database or query
  service); workers attach a snapshot's arena file **once** and keep the
  read-only mapping cached, so steady-state queries ship only the
  pickled NoK trees, four integers per partition and the atoms of the
  request's bindings (never a pickled node; the NoK blob, which the
  workers cache their compiled matchers under, does not depend on them);
* results come back as **compact nid arrays**: per NoK its root nids,
  and per run table ``(parent nid, count, child nids…)`` for each
  parent.  They are decoded against the *real* document's nodes, so
  downstream joins see ordinary identity-stable
  :class:`~repro.xmlkit.tree.Node` objects and the concatenated output
  is bit-identical to the serial scan (Theorem 1 — the order argument
  is representation-independent);
* cancellation stays cooperative across the process boundary: each
  query run owns a **slot** in two small shared arrays created with the
  pool — a cancel byte the coordinator sets on deadline expiry, failure
  or explicit cancel, and a budget cell every worker folds its scanned
  count into per stride (the approximate *global* work cap);
* a worker crash surfaces as a clean
  :class:`~repro.errors.ExecutionError` — never a hang — and the pool
  is rebuilt for the next query.
"""

from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import pickle
import threading
import time
from array import array
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Iterator, cast

from repro.errors import ExecutionError
from repro.obs.metrics import REGISTRY
from repro.pattern.decompose import NoKTree
from repro.physical.parallel_scan import (PartitionOutcome, SharedAbort,
                                          run_partition)
from repro.xmlkit.arena import ArenaDocument, DocumentArena
from repro.xmlkit.partition import Partition
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document, Node
from repro.xpath.compile import Bindings, atomized

__all__ = ["ProcessScanBackend"]

_WORKER_CRASHES = REGISTRY.counter(
    "repro_scan_worker_crashes_total",
    "Process-backend scan pools rebuilt after a worker crash")

#: Concurrent process-parallel queries one pool can track; each running
#: query owns one slot in the shared cancel/budget arrays.
_SLOT_COUNT = 64


def _fork_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork``: shared arrays pass to workers by inheritance and
    pool start-up skips a full interpreter boot per worker."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else methods[0])


class ProcessScanBackend:
    """A persistent worker-process pool for partition scans.

    Created lazily (constructing the object spawns nothing), rebuilt
    transparently after a crash, shut down deterministically by its
    owner's ``close()``.
    """

    def __init__(self, max_workers: int = 4) -> None:
        self.max_workers = max(1, max_workers)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._cancel: Any = None
        self._budget: Any = None
        self._free: list[int] = []
        self._slot_sem = threading.Semaphore(_SLOT_COUNT)
        self._closed = False

    # -- pool lifecycle -------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ExecutionError("process scan backend is closed")
            if self._pool is None:
                ctx = _fork_context()
                self._cancel = ctx.Array(ctypes.c_byte, _SLOT_COUNT,
                                         lock=False)
                self._budget = ctx.Array(ctypes.c_longlong, _SLOT_COUNT,
                                         lock=True)
                self._free = list(range(_SLOT_COUNT))
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=ctx,
                    initializer=_attach_shared,
                    initargs=(self._cancel, self._budget))
            return self._pool

    def _discard_broken(self) -> None:
        """Drop a crashed pool so the next query spawns a fresh one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            _WORKER_CRASHES.inc()
            pool.shutdown(wait=True, cancel_futures=True)

    def close(self, wait: bool = True) -> None:
        """Deterministic shutdown: drain, stop workers, free the arrays."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            self._cancel = self._budget = None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    # -- per-query slot protocol ---------------------------------------

    @contextmanager
    def slot(self, initial_scanned: int = 0) -> Iterator[int]:
        """Borrow a cancel/budget slot for one query run."""
        self._ensure()
        self._slot_sem.acquire()
        try:
            with self._lock:
                index = self._free.pop()
                self._cancel[index] = 0
                with self._budget.get_lock():
                    self._budget[index] = initial_scanned
            try:
                yield index
            finally:
                with self._lock:
                    self._free.append(index)
        finally:
            self._slot_sem.release()

    def cancel_slot(self, index: int) -> None:
        """Raise the shared cancel flag; workers observe it per stride."""
        with self._lock:
            if self._cancel is not None:
                self._cancel[index] = 1

    # -- one query run --------------------------------------------------

    def scan(self, noks: list[NoKTree], doc: Document,
             partitions: list[Partition], counters: ScanCounters,
             want_per_nok: bool, variables: Bindings
             ) -> list[PartitionOutcome]:
        """Fan the partitions out to the workers; outcomes in order.

        Matches come back decoded against ``doc``'s own nodes.  A
        partition whose worker died reports the crash as its error; the
        first failure of any kind raises the slot's cancel byte, so the
        surviving partitions stop within one stride instead of scanning
        to completion.
        """
        path = doc.derived.arena_file()
        blob = pickle.dumps(noks, protocol=pickle.HIGHEST_PROTOCOL)
        atoms = atomized(variables)
        token = counters.cancellation
        deadline = token.deadline if token is not None else None
        timeout_ms = token.timeout_ms if token is not None else None
        outcomes: dict[int, PartitionOutcome] = {}
        crashed: BrokenProcessPool | None = None

        with self.slot(initial_scanned=counters.nodes_scanned) as slot:
            try:
                pool = self._ensure()
                futures = {
                    pool.submit(_scan_partition_task, path, blob,
                                part.start_nid, part.stop_nid, slot,
                                counters.budget, deadline, timeout_ms,
                                want_per_nok, atoms): part.index
                    for part in partitions}
            except BrokenProcessPool as exc:
                self._discard_broken()
                raise ExecutionError(
                    "parallel scan worker pool is broken; restarting it "
                    f"for the next query ({exc})") from exc
            pending = set(futures)
            while pending:
                done, pending = futures_wait(pending, timeout=0.05)
                for future in done:
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        crashed = exc
                        continue
                    if exc is None:
                        # Matches travel as nid arrays; rebuild them on
                        # the real document's nodes.
                        outcome = future.result()
                        nodes = doc.nodes
                        roots = cast("dict[int, array]", outcome.matches)
                        tables = cast("dict[int, array]", outcome.groups)
                        outcome.matches = {
                            nok_id: [nodes[nid] for nid in data]
                            for nok_id, data in roots.items()}
                        outcome.groups = {
                            vid: _decode_table(data, nodes)
                            for vid, data in tables.items()}
                    else:
                        # A task that died of a bug has its traceback in
                        # another process; never drop its partition.
                        error = ExecutionError(
                            f"parallel scan worker task failed: {exc!r}")
                        error.__cause__ = exc
                        outcome = PartitionOutcome(error=error)
                    outcomes[futures[future]] = outcome
                    if outcome.error is not None:
                        self.cancel_slot(slot)
                if crashed is not None:
                    # A dead worker can leave siblings queued forever on a
                    # broken pool; everything left fails with the same error.
                    for future in pending:
                        future.cancel()
                    break
                if token is not None and (token.cancelled
                                          or token.expired()):
                    self.cancel_slot(slot)

        if crashed is not None:
            self._discard_broken()
            error = ExecutionError(
                "parallel scan worker process crashed mid-scan; the "
                f"process pool was rebuilt ({crashed})")
            error.__cause__ = crashed
            for part in partitions:
                outcomes.setdefault(part.index,
                                    PartitionOutcome(error=error))
        return [outcomes[part.index] for part in partitions]


# ----------------------------------------------------------------------
# Wire format: nid arrays, decoded onto the coordinator's nodes.
# ----------------------------------------------------------------------

def _encode_table(table: dict[Node, list[Node]]) -> array:
    """A run table as ``[parent nid, count, child nids..., ...]``."""
    out = array("i")
    for parent, run in table.items():
        out.append(parent.nid)
        out.append(len(run))
        out.extend(node.nid for node in run)
    return out


def _decode_table(data: array, nodes: Sequence[Node]
                  ) -> dict[Node, list[Node]]:
    """:func:`_encode_table` read back onto ``nodes``."""
    table: dict[Node, list[Node]] = {}
    pos, end = 0, len(data)
    while pos < end:
        count = data[pos + 1]
        pos += 2
        table[nodes[data[pos - 2]]] = [nodes[nid]
                                       for nid in data[pos:pos + count]]
        pos += count
    return table


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

_worker_cancel: Any = None
_worker_budget: Any = None
#: path -> attached ArenaDocument; the mapping is the expensive part,
#: so a small LRU keeps recent snapshots warm across queries.
_worker_arenas: OrderedDict[str, ArenaDocument] = OrderedDict()
#: plan blob -> its unpickled NoK trees, which carry their compiled
#: matchers: a worker compiles once per plan, not per partition.
_worker_noks: OrderedDict[bytes, list[NoKTree]] = OrderedDict()
_WORKER_CACHE_CAP = 8


def _attach_shared(cancel: Any, budget: Any) -> None:
    """Pool initializer: receive the shared slot arrays by inheritance."""
    global _worker_cancel, _worker_budget
    _worker_cancel = cancel
    _worker_budget = budget


def _cached(cache: OrderedDict, key: Any, load: Any) -> Any:
    """``cache[key]``, loading it on a miss; a small LRU either way."""
    if key in cache:
        cache.move_to_end(key)
    else:
        cache[key] = load(key)
        while len(cache) > _WORKER_CACHE_CAP:
            cache.popitem(last=False)
    return cache[key]


def _attach(path: str) -> ArenaDocument:
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return DocumentArena.from_buffer(mapped).document()


def _scan_partition_task(path: str, noks_blob: bytes, start_nid: int,
                         stop_nid: int, slot: int, budget: int | None,
                         deadline: float | None, timeout_ms: float | None,
                         want_per_nok: bool, variables: Bindings
                         ) -> PartitionOutcome:
    """One partition, worker-side: attach, scan, flatten for the pipe.

    The scan itself is :func:`~repro.physical.parallel_scan.run_partition`
    over the attached :class:`ArenaDocument`, whose column postings
    materialize node views only for elements a NoK is rooted at.  The
    outcome goes back small and picklable: roots and tables as nid arrays,
    the counters without their token (it holds the shared arrays), the
    wall-clock bounds widened to the whole task.
    """
    started = time.perf_counter_ns()
    noks: list[NoKTree] = _cached(_worker_noks, noks_blob, pickle.loads)
    outcome = run_partition(
        noks, _cached(_worker_arenas, path, _attach), start_nid, stop_nid,
        SharedAbort(budget, deadline, timeout_ms,
                    cancelled=lambda: bool(_worker_cancel[slot]),
                    cells=_worker_budget, index=slot,
                    lock=_worker_budget.get_lock()),
        want_per_nok, variables)
    outcome.matches = {  # type: ignore[misc]
        nok_id: array("i", [node.nid for node in roots])
        for nok_id, roots in outcome.matches.items()}
    outcome.groups = {  # type: ignore[misc]
        vid: _encode_table(table) for vid, table in outcome.groups.items()}
    outcome.counters.cancellation = None
    outcome.times = (started, time.perf_counter_ns())
    return outcome
