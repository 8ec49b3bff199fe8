"""Process-wide metrics: labeled counters, gauges, histograms.

A tiny Prometheus-shaped metrics layer with no dependencies.  Metrics
are registered (idempotently) on a :class:`MetricsRegistry` and carry
free-form label sets::

    from repro.obs.metrics import REGISTRY

    QUERIES = REGISTRY.counter("repro_queries_total", "Queries executed")
    QUERIES.inc(strategy="pipelined")

The process-wide :data:`REGISTRY` is what the engine session, the
physical operators and the slow-query log all write to; export it with
:func:`repro.obs.export.prometheus_text`.

The conventional metric families the engine feeds (all prefixed
``repro_``):

=============================================  =========  ==============================
name                                           type       labels
=============================================  =========  ==============================
``repro_queries_total``                        counter    ``strategy``
``repro_query_latency_ms``                     histogram  ``strategy``
``repro_nodes_scanned_total``                  counter    —
``repro_scans_total``                          counter    —
``repro_comparisons_total``                    counter    —
``repro_intermediate_results_total``           counter    —
``repro_peak_buffered``                        gauge      —
``repro_join_selected_total``                  counter    ``algorithm``
``repro_operator_invocations_total``           counter    ``operator``
``repro_operator_output_total``                counter    ``operator``
``repro_budget_trips_total``                   counter    —
``repro_dnf_total``                            counter    ``strategy``
``repro_slow_queries_total``                   counter    —
``repro_plan_cache_hits_total``                counter    —
``repro_plan_cache_misses_total``              counter    —
``repro_plan_cache_evictions_total``           counter    —
``repro_plan_verify_total``                    counter    ``outcome``
``repro_plan_verify_findings_total``           counter    ``rule``
``repro_query_timeout_total``                  counter    —
``repro_snapshot_publishes_total``             counter    —
``repro_snapshot_retires_total``               counter    —
``repro_snapshots_live``                       gauge      —
``repro_service_queue_depth``                  gauge      —
``repro_service_inflight``                     gauge      —
``repro_service_rejections_total``             counter    —
``repro_service_coalesced_total``              counter    —
``repro_service_wait_ms``                      histogram  —
``repro_service_run_ms``                       histogram  —
``repro_result_cache_hits_total``              counter    —
``repro_result_cache_misses_total``            counter    —
``repro_result_cache_bytes``                   gauge      —
``repro_result_cache_evictions_total``         counter    —
``repro_result_cache_invalidated_total``       counter    —
``repro_partition_splits_total``               counter    —
``repro_partition_scans_total``                counter    —
``repro_partition_fallbacks_total``            counter    —
``repro_tag_index_builds_total``               counter    —
``repro_service_worker_utilization``           gauge      —
``repro_service_timeouts_total``               counter    —
``repro_querylint_findings_total``             counter    ``rule``
``repro_querylint_static_empty_total``         counter    —
=============================================  =========  ==============================

The plan-cache family is registered by :mod:`repro.engine.plancache`
(imported with the engine), and the ``query`` span carries a
``plan-cache`` attribute (``hit`` / ``miss`` / ``bypass`` /
``prepared``) tying individual traces to the counters.  The
plan-verify family is registered by :mod:`repro.analysis.analyzer`:
every ``verify_*`` gate run moves exactly one ``outcome`` cell —
``ok``, ``warning`` (findings, none blocking) or ``error`` (the gate
raised) — and each compile opens a ``verify-plan`` span whose
``findings``/``rules`` attributes tie a trace to the analyzer's
counters.  The operator pair is declared once, beside ``JoinResult``
in :mod:`repro.physical.structural` (``count_operator``).  The serving
families (``repro_snapshot_*`` / ``repro_service_*`` /
``repro_result_cache_*`` plus the timeout counter) are
registered by :mod:`repro.serve` — the wait/run histograms split a
served query's latency into queue time and execution time, and the
result-cache hit/miss/byte/eviction/invalidation family is owned by
the storage in :mod:`repro.serve.cachepolicy`.  The
partition family comes from :mod:`repro.xmlkit.partition` (subtree
splits of skewed documents) and :mod:`repro.physical.parallel_scan`
(per-partition scan tasks and single-partition fallbacks to the serial
scan); ``repro_tag_index_builds_total`` counts full-document tag-index
materializations — a document version owns one index
(``doc.derived``), built at most once, and a version whose predecessor
had one inherits it patched, so a commit adds none.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
           "STATS_SCHEMA", "bucket_quantile"]

#: Version of the structured ``stats()`` payloads (``Database.stats``,
#: ``QueryService.stats`` and the wire ``stats`` frame), stamped as their
#: ``"schema"`` key; it moves when a documented key leaves or changes.
STATS_SCHEMA = 4

LabelKey = tuple[tuple[str, str], ...]

#: Default latency buckets (milliseconds).
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    if not labels:          # unlabeled metrics dominate the hot path
        return ()
    if len(labels) == 1:    # ...then one label, which needs no sort
        (item,) = labels.items()
        return ((item[0], str(item[1])),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Common storage: one value cell per distinct label set."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._cells: dict[LabelKey, float] = {}

    def value(self, **labels: Any) -> float:
        """Current value for one label set (0 if never touched)."""
        return self._cells.get(_label_key(labels), 0.0)

    def cells(self) -> dict[LabelKey, float]:
        """All (label-set, value) cells, for exposition."""
        return dict(self._cells)

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()


class Counter(_Metric):
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go up and down (e.g. peak buffer size)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._cells[_label_key(labels)] = float(value)

    def max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum (handy for peak-style gauges)."""
        key = _label_key(labels)
        with self._lock:
            if value > self._cells.get(key, float("-inf")):
                self._cells[key] = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Iterable[float] | None = None) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets if buckets is not None
                                    else DEFAULT_BUCKETS))
        self._lock = threading.Lock()
        #: label key -> (per-bucket counts, sum, count)
        self._cells: dict[LabelKey, tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            counts, total, n = self._cells.get(
                key, ([0] * len(self.buckets), 0.0, 0))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            self._cells[key] = (counts, total + value, n + 1)

    def count(self, **labels: Any) -> int:
        cell = self._cells.get(_label_key(labels))
        return cell[2] if cell else 0

    def sum(self, **labels: Any) -> float:
        cell = self._cells.get(_label_key(labels))
        return cell[1] if cell else 0.0

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimate the ``q``-quantile (0 ≤ q ≤ 1) from the buckets.

        Prometheus ``histogram_quantile`` semantics: linear
        interpolation inside the bucket the rank falls into, and the
        last finite bucket bound when the rank lands in the ``+Inf``
        overflow bucket (the histogram has no upper bound to
        interpolate toward).  ``None`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cell = self._cells.get(_label_key(labels))
        if cell is None:
            return None
        counts, _total, n = cell
        return bucket_quantile(self.buckets, counts, n, q)

    def cells(self) -> dict[LabelKey, tuple[list[int], float, int]]:
        return dict(self._cells)

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()


def bucket_quantile(buckets: tuple[float, ...], counts: list[int],
                    n: int, q: float) -> float | None:
    """Quantile estimate over cumulative bucket counts.

    Shared by :meth:`Histogram.quantile` and the Prometheus exposition
    (which reads raw cells), so the two views can never disagree.
    """
    if n <= 0:
        return None
    rank = q * n
    if rank <= 0:
        # q == 0: the estimate is the floor of the first non-empty
        # bucket; a vanishing positive rank lands exactly there.
        rank = 1e-9
    prev_bound, prev_count = 0.0, 0
    for bound, cumulative in zip(buckets, counts, strict=True):
        if cumulative >= rank:
            span = cumulative - prev_count
            if span <= 0:       # degenerate: rank on an empty bucket edge
                return bound
            fraction = (rank - prev_count) / span
            return prev_bound + fraction * (bound - prev_bound)
        prev_bound, prev_count = bound, cumulative
    # The rank falls in the +Inf overflow bucket: no finite upper bound
    # to interpolate toward, so report the largest finite bound.
    return buckets[-1] if buckets else None


class MetricsRegistry:
    """Create-or-get registry of named metrics, in registration order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _register(self, name: str, factory, kind: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if getattr(existing, "kind", None) != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{getattr(existing, 'kind', '?')}, not {kind}")
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help_text), "counter")

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(name, lambda: Gauge(name, help_text), "gauge")

    def histogram(self, name: str, help_text: str = "",
                  buckets: Iterable[float] | None = None) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help_text, buckets), "histogram")

    def get(self, name: str):
        """A registered metric by name, or ``None``."""
        return self._metrics.get(name)

    def collect(self) -> list[object]:
        """All metrics in registration order (for exposition)."""
        return list(self._metrics.values())

    def reset(self) -> None:
        """Zero every metric's cells (registrations survive) — tests."""
        for metric in self._metrics.values():
            metric.clear()  # type: ignore[attr-defined]


#: The process-wide registry every engine component writes to.
REGISTRY = MetricsRegistry()
