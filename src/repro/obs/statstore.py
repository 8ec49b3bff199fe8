"""Runtime statistics store: per-plan actuals, recorded on every run.

The cost model estimates; ``explain_analyze`` measures — but until this
module the two never met: actuals were computed, printed, and thrown
away while the optimizer kept deciding from static
:mod:`repro.xmlkit.stats` summaries.  :class:`StatsStore` is the
missing memory.  Every execution that flows through
:meth:`Engine._run <repro.engine.session.Engine>` records, keyed like
the plan cache —

``(normalized query text, executed strategy, stats fingerprint,
executor backend key)``

— the observed wall time (a full latency histogram, not just a mean),
the run's work-counter deltas (nodes scanned, comparisons, buffered
intermediates), the output cardinality, and the per-NoK observed
selectivities (matches per pattern root tag).  On top of those
observations sit the consumers:

* the **feedback loop** in :mod:`repro.engine.optimizer`
  (:class:`~repro.engine.optimizer.StrategyAdvisor`) compares measured
  latencies across strategies of one query and demotes the static
  choice when an alternative measures faster (with hysteresis, so the
  decision does not flap);
* **re-costing** in :mod:`repro.engine.cost` — observed per-tag match
  cardinalities override the index cardinalities, so
  ``Engine.recost()`` ranks strategies against reality instead of
  against the static histogram;
* the **introspection surface** — ``Database.stats()`` /
  ``QueryService.stats()`` embed :meth:`StatsStore.snapshot`, the
  ``python -m repro.obs`` CLI renders it as tables, and
  :meth:`to_jsonl` exports one JSON line per plan for offline tooling.

Counters (process-wide, exported like every ``repro_*`` family):

=============================================  ==============================
``repro_stats_records_total``                  executions recorded
``repro_stats_recost_total``                   feedback/observed re-costings
``repro_strategy_demotions_total``             strategies demoted by measured
                                               regression (labels:
                                               ``from_strategy``,
                                               ``to_strategy``)
=============================================  ==============================

The store is thread-safe (one lock around the accumulator map; callers
of the serving layer share one store per document) and bounded: at
``max_plans`` distinct keys the least-recently-recorded plan is
evicted, so a long-lived service cannot grow it without bound.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import REGISTRY, Histogram

__all__ = ["DemotionRecord", "PlanStats", "StatsStore",
           "RESULT_SIZE_BUCKETS",
           "STATS_RECORDS", "STATS_RECOSTS", "STRATEGY_DEMOTIONS"]

STATS_RECORDS = REGISTRY.counter(
    "repro_stats_records_total",
    "Query executions recorded into a runtime statistics store")
STATS_RECOSTS = REGISTRY.counter(
    "repro_stats_recost_total",
    "Plans re-costed against observed runtime statistics")
STRATEGY_DEMOTIONS = REGISTRY.counter(
    "repro_strategy_demotions_total",
    "Strategy choices demoted after an observed latency regression")

#: Latency buckets for the per-plan histograms — finer than the default
#: registry buckets at the low end, where strategy differences live.
PLAN_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                        50.0, 100.0, 250.0, 1000.0, 5000.0)

#: Work-counter deltas the store accumulates per plan.
WORK_COUNTERS = ("nodes_scanned", "comparisons", "intermediate_results")

#: Serialized result-size buckets (bytes) — log-spaced from scalar
#: aggregates to whole subtrees.  The serving layer records every
#: cacheable result's byte size here; the adaptive cache policy reads
#: the distribution back to bound per-entry admission.
RESULT_SIZE_BUCKETS = (256, 1024, 4096, 16384, 65536, 262144,
                       1048576, 4194304, 16777216)


@dataclass
class DemotionRecord:
    """One feedback decision that overrode the static strategy choice.

    Kept by the store (bounded ring) and surfaced through
    :meth:`StatsStore.snapshot`, ``Database.stats()`` and the
    ``python -m repro.obs`` CLI, so every demotion is auditable: what
    query, which strategies, and the measured latencies that justified
    the move.
    """

    query: str
    fingerprint: str
    executor: str
    from_strategy: str
    to_strategy: str
    from_mean_ms: float
    to_mean_ms: float
    executions: int          # observations across both arms at decision time
    reason: str
    timestamp: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, object]:
        return {
            "query": self.query,
            "fingerprint": self.fingerprint,
            "executor": self.executor,
            "from_strategy": self.from_strategy,
            "to_strategy": self.to_strategy,
            "from_mean_ms": round(self.from_mean_ms, 3),
            "to_mean_ms": round(self.to_mean_ms, 3),
            "executions": self.executions,
            "reason": self.reason,
            "timestamp": self.timestamp,
        }


class PlanStats:
    """Accumulated actuals of one (query, strategy, version, executor).

    Mutated only by :meth:`StatsStore.record` (under the store lock);
    readers get plain dicts via :meth:`to_dict`.
    """

    __slots__ = ("text", "strategy", "fingerprint", "executor",
                 "executions", "errors", "total_ms", "min_ms", "max_ms",
                 "latency", "items_total", "work", "nok_matches",
                 "cache_hits", "last_error", "last_recorded")

    def __init__(self, text: str, strategy: str, fingerprint: tuple,
                 executor: str) -> None:
        self.text = text
        self.strategy = strategy
        self.fingerprint = fingerprint
        self.executor = executor
        self.executions = 0
        self.errors = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0
        self.latency = Histogram("plan_latency_ms", buckets=PLAN_LATENCY_BUCKETS)
        self.items_total = 0
        #: accumulated work-counter deltas (see :data:`WORK_COUNTERS`).
        self.work: dict[str, int] = dict.fromkeys(WORK_COUNTERS, 0)
        #: pattern root tag -> [total matches, observations] — the
        #: observed NoK selectivities the re-coster consumes.
        self.nok_matches: dict[str, list[int]] = {}
        self.cache_hits = 0
        self.last_error: str | None = None
        self.last_recorded = 0.0

    # -- derived quantities -------------------------------------------------

    @property
    def successes(self) -> int:
        return self.executions - self.errors

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.executions if self.executions else 0.0

    def quantile(self, q: float) -> float | None:
        return self.latency.quantile(q)

    def observed_cardinality(self, tag: str) -> float | None:
        """Mean observed matches of one NoK root tag, or ``None``."""
        cell = self.nok_matches.get(tag)
        if not cell or not cell[1]:
            return None
        return cell[0] / cell[1]

    def to_dict(self) -> dict[str, object]:
        """JSON-able summary (what ``stats()`` snapshots embed)."""
        return {
            "query": self.text,
            "strategy": self.strategy,
            "fingerprint": _fingerprint_text(self.fingerprint),
            "executor": self.executor,
            "executions": self.executions,
            "errors": self.errors,
            "total_ms": round(self.total_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "min_ms": round(self.min_ms, 3) if self.executions else None,
            "max_ms": round(self.max_ms, 3),
            "p50_ms": _round_opt(self.quantile(0.50)),
            "p95_ms": _round_opt(self.quantile(0.95)),
            "p99_ms": _round_opt(self.quantile(0.99)),
            "items_total": self.items_total,
            "work": dict(self.work),
            "nok_selectivity": {
                tag: round(total / max(1, n), 3)
                for tag, (total, n) in sorted(self.nok_matches.items())},
            "cache_hits": self.cache_hits,
            "last_error": self.last_error,
        }


def _round_opt(value: float | None) -> float | None:
    return round(value, 3) if value is not None else None


def _fingerprint_text(fingerprint: tuple) -> str:
    return "/".join(str(part) for part in fingerprint)


class StatsStore:
    """Thread-safe accumulator of per-plan runtime statistics.

    One store is owned by each plain :class:`~repro.engine.session.Engine`
    (or shared: the serving :class:`~repro.serve.catalog.Catalog` hands
    one store per document to every snapshot engine, exactly like the
    shared plan cache, so observations survive snapshot churn).
    """

    def __init__(self, max_plans: int = 512, max_demotions: int = 256) -> None:
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, PlanStats] = OrderedDict()
        self.max_plans = max(1, max_plans)
        self.max_demotions = max(1, max_demotions)
        self._demotions: list[DemotionRecord] = []
        #: (text, fingerprint, executor) -> strategy the feedback
        #: loop has settled on (the advisor's persistent decision).
        self._settled: dict[tuple, str] = {}
        self.records = 0
        #: Distribution of serialized result sizes (bytes), fed by the
        #: serving layer's cache admission path and consumed by
        #: :class:`repro.serve.cachepolicy.AdaptiveCachePolicy`.
        self.result_bytes = Histogram("result_bytes",
                                      buckets=RESULT_SIZE_BUCKETS)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record(self, text: str, strategy: str, fingerprint: tuple,
               executor: str, *, elapsed_ms: float,
               counters: Mapping[str, int] | None = None,
               items: int | None = None,
               nok_matches: Iterable[tuple[str, int]] | None = None,
               cache_status: str | None = None,
               error: str | None = None) -> PlanStats:
        """Record one execution's actuals; returns the updated entry.

        ``counters`` carries the run's work-counter *deltas* (the shell
        computes them against its before-snapshot); ``nok_matches`` the
        per-NoK ``(root tag, match count)`` pairs of the match phase;
        ``error`` the exception type name when the run failed (failed
        runs count toward latency but not toward selectivities).
        """
        key = (text, strategy, fingerprint, executor)
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                entry = PlanStats(text, strategy, fingerprint, executor)
                while len(self._plans) >= self.max_plans:
                    self._plans.popitem(last=False)
                self._plans[key] = entry
            else:
                self._plans.move_to_end(key)
            entry.executions += 1
            entry.total_ms += elapsed_ms
            entry.min_ms = min(entry.min_ms, elapsed_ms)
            entry.max_ms = max(entry.max_ms, elapsed_ms)
            entry.latency.observe(elapsed_ms)
            entry.last_recorded = time.time()
            if counters:
                for name in WORK_COUNTERS:
                    entry.work[name] += int(counters.get(name, 0))
            if items is not None:
                entry.items_total += items
            if cache_status in ("hit", "prepared"):
                entry.cache_hits += 1
            if error is not None:
                entry.errors += 1
                entry.last_error = error
            elif nok_matches:
                for tag, matches in nok_matches:
                    cell = entry.nok_matches.setdefault(tag, [0, 0])
                    cell[0] += matches
                    cell[1] += 1
            self.records += 1
        STATS_RECORDS.inc()
        return entry

    def record_result_bytes(self, nbytes: int) -> None:
        """Record one serialized result's byte size.

        The serving layer calls this on every cache-admission decision
        (hit or miss), building the entry-size distribution the
        adaptive cache policy sizes its admission bound from.
        """
        self.result_bytes.observe(float(nbytes))

    # ------------------------------------------------------------------
    # Lookups the feedback loop and re-coster consume.
    # ------------------------------------------------------------------

    def get(self, text: str, strategy: str, fingerprint: tuple,
            executor: str) -> PlanStats | None:
        with self._lock:
            return self._plans.get((text, strategy, fingerprint, executor))

    def arms(self, text: str, fingerprint: tuple,
             executor: str) -> dict[str, PlanStats]:
        """Per-strategy observations of one (query, version, backend).

        The advisor's view: the same query executed under different
        strategies, comparable because everything else in the key is
        held fixed.
        """
        with self._lock:
            return {entry.strategy: entry
                    for (t, _s, f, x), entry in self._plans.items()
                    if t == text and f == fingerprint and x == executor}

    def observed_cardinalities(self, fingerprint: tuple) -> dict[str, float]:
        """Mean observed matches per NoK root tag for one document version.

        Aggregated across every recorded plan of that fingerprint —
        this is what :class:`~repro.engine.cost.CostModel` accepts as
        its ``observed`` override, replacing index cardinalities with
        measured selectivities.
        """
        totals: dict[str, list[int]] = {}
        with self._lock:
            for (_t, _s, f, _p), entry in self._plans.items():
                if f != fingerprint:
                    continue
                for tag, (total, n) in entry.nok_matches.items():
                    cell = totals.setdefault(tag, [0, 0])
                    cell[0] += total
                    cell[1] += n
        return {tag: total / n for tag, (total, n) in totals.items() if n}

    # ------------------------------------------------------------------
    # Feedback decisions (the advisor's persistent state).
    # ------------------------------------------------------------------

    def settled_strategy(self, text: str, fingerprint: tuple,
                         executor: str) -> str | None:
        """The strategy the feedback loop settled on, if decided."""
        with self._lock:
            return self._settled.get((text, fingerprint, executor))

    def settle(self, text: str, fingerprint: tuple, executor: str,
               strategy: str, demotion: DemotionRecord | None = None) -> None:
        """Persist a feedback decision (and its demotion record, if the
        decision moved away from the static choice)."""
        with self._lock:
            self._settled[(text, fingerprint, executor)] = strategy
            if demotion is not None:
                self._demotions.append(demotion)
                del self._demotions[:len(self._demotions) - self.max_demotions]
        if demotion is not None:
            STRATEGY_DEMOTIONS.inc(from_strategy=demotion.from_strategy,
                                   to_strategy=demotion.to_strategy)

    @property
    def demotions(self) -> list[DemotionRecord]:
        with self._lock:
            return list(self._demotions)

    # ------------------------------------------------------------------
    # Introspection: snapshots, tables, export.
    # ------------------------------------------------------------------

    def top_queries(self, n: int = 10) -> list[dict[str, object]]:
        """The ``n`` most expensive plans by accumulated wall time."""
        with self._lock:
            entries = sorted(self._plans.values(),
                             key=lambda e: e.total_ms, reverse=True)
        return [entry.to_dict() for entry in entries[:n]]

    def strategy_table(self) -> list[dict[str, object]]:
        """Per-strategy aggregate with measured win/loss counts.

        A *win* means: among the recorded strategies of one
        (query, fingerprint, executor) group with at least two
        measured strategies, this strategy had the lowest mean latency.
        Groups with a single strategy contribute to the aggregate
        columns but not to wins/losses (there was no contest).
        """
        with self._lock:
            entries = list(self._plans.values())
        groups: dict[tuple, list[PlanStats]] = {}
        for entry in entries:
            groups.setdefault(
                (entry.text, entry.fingerprint, entry.executor),
                []).append(entry)
        rows: dict[str, dict[str, object]] = {}
        pooled: dict[str, list[Histogram]] = {}
        for entry in entries:
            row = rows.setdefault(entry.strategy, {
                "strategy": entry.strategy, "executions": 0, "errors": 0,
                "total_ms": 0.0, "wins": 0, "losses": 0})
            row["executions"] += entry.executions
            row["errors"] += entry.errors
            row["total_ms"] += entry.total_ms
            pooled.setdefault(entry.strategy, []).append(entry.latency)
        for contenders in groups.values():
            measured = [e for e in contenders if e.successes > 0]
            if len(measured) < 2:
                continue
            winner = min(measured, key=lambda e: e.mean_ms)
            for entry in measured:
                column = "wins" if entry is winner else "losses"
                rows[entry.strategy][column] += 1
        for strategy, row in rows.items():
            execs = row["executions"]
            row["mean_ms"] = round(row["total_ms"] / execs, 3) if execs else 0.0
            row["total_ms"] = round(row["total_ms"], 3)
            merged = _pool_histograms(pooled[strategy])
            for q, label in ((0.50, "p50_ms"), (0.95, "p95_ms"),
                             (0.99, "p99_ms")):
                row[label] = _round_opt(merged.quantile(q))
        return sorted(rows.values(), key=lambda r: r["total_ms"], reverse=True)

    def snapshot(self, top: int | None = None) -> dict[str, object]:
        """A JSON-able view of the whole store.

        ``top`` bounds the per-plan list (most expensive first); the
        strategy table, demotions and totals always cover everything.
        """
        with self._lock:
            n_plans = len(self._plans)
            records = self.records
            settled = {" | ".join((t, _fingerprint_text(f), x)): s
                       for (t, f, x), s in self._settled.items()}
        return {
            "plans": self.top_queries(top if top is not None else n_plans),
            "n_plans": n_plans,
            "records": records,
            "by_strategy": self.strategy_table(),
            "demotions": [d.to_dict() for d in self.demotions],
            "settled": settled,
            "result_bytes": {
                "observations": self.result_bytes.count(),
                "p50": _round_opt(self.result_bytes.quantile(0.50)),
                "p95": _round_opt(self.result_bytes.quantile(0.95)),
            },
        }

    def to_jsonl(self) -> str:
        """One JSON line per plan entry plus one per demotion record."""
        lines = [json.dumps({"kind": "plan", **entry})
                 for entry in self.top_queries(len(self))]
        lines.extend(json.dumps({"kind": "demotion", **d.to_dict()})
                     for d in self.demotions)
        return "\n".join(lines) + ("\n" if lines else "")

    def export_jsonl(self, path: str | Path) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns lines written."""
        text = self.to_jsonl()
        Path(path).write_text(text, encoding="utf-8")
        return sum(1 for line in text.splitlines() if line)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._demotions.clear()
            self._settled.clear()
            self.records = 0
            self.result_bytes.clear()


def _pool_histograms(histograms: list[Histogram]) -> Histogram:
    """Merge same-bucket histograms into one (for per-strategy quantiles)."""
    merged = Histogram("pooled", buckets=PLAN_LATENCY_BUCKETS)
    counts = [0] * len(merged.buckets)
    total, n = 0.0, 0
    for histogram in histograms:
        for cell_counts, cell_total, cell_n in histogram.cells().values():
            for index, count in enumerate(cell_counts):
                counts[index] += count
            total += cell_total
            n += cell_n
    if n:
        merged._cells[()] = (counts, total, n)
    return merged
