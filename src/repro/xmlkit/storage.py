"""Sequential-scan access method with I/O accounting.

The NoK pattern-matching operator of the paper evaluates patterns "using
a single scan of the input" (Section 2.1).  This module models that
access method: a document-order node scan whose work is recorded in a
shared :class:`ScanCounters`.  The counters are what the tests use
to show that merging two NoK operators into one scan halves the I/O
(Section 4.2, technique 1), and that a bounded nested-loop join touches
far fewer nodes than a naive one (Section 4.3).

Counting *nodes delivered by a scan* rather than wall-clock time gives a
machine-independent proxy for the paper's I/O argument — the original
experiments equate one scan with one pass over the file on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from collections.abc import Collection, Iterable, Iterator
from itertools import chain
from operator import attrgetter

from repro.errors import DNFError, QueryCancelledError, QueryTimeoutError
from repro.obs.metrics import REGISTRY
from repro.xmlkit.tree import ELEMENT, Document, Node

__all__ = ["CancellationToken", "ScanCounters", "SequentialScan",
           "postings_scan"]

_BUDGET_TRIPS = REGISTRY.counter(
    "repro_budget_trips_total",
    "Sequential scans aborted by the work budget (DNF emulation)")

#: ``ScanCounters`` fields that configure a run rather than count work.
#: ``reset``/``snapshot``/``merge`` skip these (pinned by
#: ``tests/test_counters_contract.py``).
CONFIG_FIELDS = ("budget", "cancellation")


class CancellationToken:
    """Cooperative deadline/cancel flag threaded through operator loops.

    Physical operators call :meth:`checkpoint` from their scan loops;
    every ``stride`` calls the token checks its deadline and cancel flag
    and raises :class:`~repro.errors.QueryTimeoutError` or
    :class:`~repro.errors.QueryCancelledError`.  The stride keeps the
    hot-path cost at one integer increment per node; ``cancel()`` from
    another thread is observed within one stride.
    """

    __slots__ = ("deadline", "timeout_ms", "stride", "_cancelled", "_ticks")

    def __init__(self, timeout_ms: float | None = None,
                 stride: int = 256) -> None:
        self.timeout_ms = timeout_ms
        self.deadline = (time.monotonic() + timeout_ms / 1000.0
                         if timeout_ms is not None else None)
        self.stride = max(1, stride)
        self._cancelled = False
        self._ticks = 0

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def check(self) -> None:
        """Raise immediately if cancelled or past the deadline."""
        if self._cancelled:
            raise QueryCancelledError()
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise QueryTimeoutError(timeout_ms=self.timeout_ms)

    def checkpoint(self, slots: int = 1) -> None:
        """Cheap per-iteration check: full :meth:`check` every stride
        (``slots``: how many iterations' worth this call stands for)."""
        self._ticks += slots
        if self._ticks >= self.stride:
            self._ticks %= self.stride
            self.check()


@dataclass
class ScanCounters:
    """Mutable work counters shared across operators in one query run.

    ``budget`` optionally caps ``nodes_scanned``: scans raise
    :class:`~repro.errors.DNFError` once the cap is exceeded, which is
    how the benchmark harness reproduces the paper's "DNF" entries
    deterministically instead of waiting out wall-clock timeouts.

    ``cancellation`` optionally carries a :class:`CancellationToken`;
    scans and operator loops checkpoint it, giving per-query deadlines
    and cooperative cancellation the same transport as the budget.

    ``reset``/``snapshot``/``merge`` are driven by the dataclass field
    set (everything except the :data:`CONFIG_FIELDS` configuration), so
    adding a counter field automatically keeps all three in sync — the
    contract ``tests/test_counters_contract.py`` pins down.
    """

    nodes_scanned: int = 0       # nodes delivered by sequential scans
    scans_started: int = 0       # number of full or partial scans opened
    comparisons: int = 0         # structural/value predicate evaluations
    intermediate_results: int = 0  # NestedLists buffered between operators
    peak_buffered: int = 0       # max items held beyond the inputs (PL, TwigStack)
    budget_trips: int = 0        # scans aborted by the budget (DNF)
    budget: int | None = None  # DNF threshold on nodes_scanned
    #: Cooperative deadline/cancel token; operators checkpoint it from
    #: their scan loops (configuration, like ``budget``).
    cancellation: CancellationToken | None = None

    def reset(self) -> None:
        for name in counter_fields():
            setattr(self, name, 0)

    def note_buffer(self, size: int) -> None:
        """Record the current buffered-result count, tracking the peak."""
        if size > self.peak_buffered:
            self.peak_buffered = size

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in counter_fields()}

    def merge(self, other: ScanCounters) -> None:
        """Fold another counter set into this one (peaks take the max)."""
        for name in counter_fields():
            if name == "peak_buffered":
                self.note_buffer(other.peak_buffered)
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def trip_budget(self) -> None:
        """Record a budget violation (metric + counter) before raising."""
        self.budget_trips += 1
        _BUDGET_TRIPS.inc()


def counter_fields() -> tuple[str, ...]:
    """The counter field names (``CONFIG_FIELDS`` configure, not count)."""
    return tuple(f.name for f in fields(ScanCounters)
                 if f.name not in CONFIG_FIELDS)


class SequentialScan:
    """Document-order element scan over a document or a node range.

    Parameters
    ----------
    doc:
        The document to scan.
    counters:
        Shared work counters; every delivered node increments
        ``nodes_scanned``.
    start_nid, stop_nid:
        Pre-order rank range to scan (used by the bounded nested-loop
        join to restrict the inner scan to an outer node's subtree
        range).  ``stop_nid`` is exclusive; ``None`` means to the end.
    """

    def __init__(self, doc: Document, counters: ScanCounters | None = None,
                 start_nid: int = 0, stop_nid: int | None = None) -> None:
        self.doc = doc
        self.counters = counters if counters is not None else ScanCounters()
        self.start_nid = start_nid
        self.stop_nid = stop_nid if stop_nid is not None else len(doc.nodes)

    def __iter__(self) -> Iterator[Node]:
        """Yield element nodes in document order within the range."""
        self.counters.scans_started += 1
        nodes = self.doc.nodes
        counters = self.counters
        budget = counters.budget
        token = counters.cancellation
        for nid in range(self.start_nid, min(self.stop_nid, len(nodes))):
            node = nodes[nid]
            counters.nodes_scanned += 1
            if budget is not None and counters.nodes_scanned > budget:
                counters.trip_budget()
                raise DNFError("sequential scan exceeded the work budget",
                               budget=budget)
            if token is not None:
                token.checkpoint()
            if node.kind == ELEMENT:
                yield node


def postings_scan(doc: Document, counters: ScanCounters,
                  tags: Collection[str], start_nid: int = 0,
                  stop_nid: int | None = None) -> Iterable[Node]:
    """The named-root access method: the elements of ``[start_nid,
    stop_nid)`` named in ``tags``, in document order, from the
    document's tag postings (:meth:`Document.postings`).

    The I/O model is :class:`SequentialScan`'s, one pass over the range:
    every slot is charged to ``nodes_scanned`` whether or not a posting
    names it — a stride at a time, one token checkpoint per stride — and
    the budget trips at the slot the pass would trip at, after the
    candidates before that slot were delivered.
    """
    counters.scans_started += 1
    stop = len(doc.nodes) if stop_nid is None \
        else min(stop_nid, len(doc.nodes))
    runs = [doc.postings(tag, start_nid, stop) for tag in tags]
    found = (runs[0] if len(runs) == 1 else
             sorted(chain.from_iterable(runs), key=attrgetter("nid")))
    if counters.budget is None and counters.cancellation is None:
        counters.nodes_scanned += max(0, stop - start_nid)
        return found
    return _paced(found, counters, start_nid, stop)


def _paced(found: list[Node], counters: ScanCounters, start: int,
           stop: int) -> Iterator[Node]:
    token, budget = counters.cancellation, counters.budget
    stride = token.stride if token is not None else max(1, stop - start)
    delivered = 0
    for low in range(start, stop, stride):
        size = min(stride, stop - low)
        room = size if budget is None else budget - counters.nodes_scanned
        charged = max(0, min(size, room))
        counters.nodes_scanned += charged
        if token is not None:
            token.checkpoint(charged)
        while delivered < len(found) \
                and found[delivered].nid < low + charged:
            yield found[delivered]
            delivered += 1
        if room < size:     # the next slot's charge exceeds the budget
            counters.nodes_scanned += 1
            counters.trip_budget()
            raise DNFError("sequential scan exceeded the work budget",
                           budget=budget)
