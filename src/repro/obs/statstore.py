"""Runtime statistics store: per-plan actuals, recorded on every run.

The cost model estimates; ``explain_analyze`` measures one run.
:class:`StatsStore` keeps the measurements across runs.  Every
execution that flows through :meth:`Engine._run
<repro.engine.session.Engine>` records, keyed like the plan cache —

``(normalized query text, executed strategy, stats fingerprint,
executor backend key)``

— the observed wall time (a full latency histogram, not just a mean),
the run's work-counter deltas (nodes scanned, comparisons, buffered
intermediates), the output cardinality, and the per-NoK observed
selectivities (matches per pattern root tag).

The store is an observer.  Its readers are the introspection surface —
``Database.stats()`` / ``QueryService.stats()`` embed
:meth:`StatsStore.snapshot`, the ``python -m repro.obs`` CLI renders it
as tables, and :meth:`to_jsonl` exports one JSON line per plan for
offline tooling.  No plan or cache decision reads it: the optimizer is
the paper's static one, so a query's plan never depends on its history.

Counters (process-wide, exported like every ``repro_*`` family):

=============================================  ==============================
``repro_stats_records_total``                  executions recorded
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
from pathlib import Path

from repro.obs.metrics import REGISTRY, Histogram

__all__ = ["PlanStats", "StatsStore", "STATS_RECORDS"]

STATS_RECORDS = REGISTRY.counter(
    "repro_stats_records_total",
    "Query executions recorded into a runtime statistics store")

#: Latency buckets for the per-plan histograms — finer than the default
#: registry buckets at the low end, where strategy differences live.
PLAN_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                        50.0, 100.0, 250.0, 1000.0, 5000.0)

#: Work-counter deltas the store accumulates per plan.
WORK_COUNTERS = ("nodes_scanned", "comparisons", "intermediate_results")


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
        #: observed NoK selectivities.
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

    def __init__(self, max_plans: int = 512) -> None:
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, PlanStats] = OrderedDict()
        self.max_plans = max(1, max_plans)
        self.records = 0

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

    # ------------------------------------------------------------------
    # Introspection: lookups, snapshots, tables, export.
    # ------------------------------------------------------------------

    def get(self, text: str, strategy: str, fingerprint: tuple,
            executor: str) -> PlanStats | None:
        with self._lock:
            return self._plans.get((text, strategy, fingerprint, executor))

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
        members: dict[str, list[PlanStats]] = {}
        groups: dict[tuple, list[PlanStats]] = {}
        for entry in entries:
            members.setdefault(entry.strategy, []).append(entry)
            groups.setdefault(
                (entry.text, entry.fingerprint, entry.executor),
                []).append(entry)
        wins = dict.fromkeys(members, 0)
        losses = dict.fromkeys(members, 0)
        for contenders in groups.values():
            measured = [e for e in contenders if e.successes > 0]
            if len(measured) < 2:
                continue
            winner = min(measured, key=lambda e: e.mean_ms)
            for entry in measured:
                (wins if entry is winner else losses)[entry.strategy] += 1
        totals = {strategy: sum(e.total_ms for e in group)
                  for strategy, group in members.items()}
        rows: list[dict[str, object]] = []
        for strategy in sorted(members, key=totals.__getitem__, reverse=True):
            group = members[strategy]
            execs = sum(e.executions for e in group)
            merged = _pool_histograms([e.latency for e in group])
            rows.append({
                "strategy": strategy, "executions": execs,
                "errors": sum(e.errors for e in group),
                "total_ms": round(totals[strategy], 3),
                "wins": wins[strategy], "losses": losses[strategy],
                "mean_ms": round(totals[strategy] / execs, 3) if execs else 0.0,
                "p50_ms": _round_opt(merged.quantile(0.50)),
                "p95_ms": _round_opt(merged.quantile(0.95)),
                "p99_ms": _round_opt(merged.quantile(0.99)),
            })
        return rows

    def snapshot(self, top: int | None = None) -> dict[str, object]:
        """A JSON-able view of the whole store.

        ``top`` bounds the per-plan list (most expensive first); the
        strategy table and totals always cover everything.
        """
        with self._lock:
            n_plans = len(self._plans)
            records = self.records
        return {
            "plans": self.top_queries(top if top is not None else n_plans),
            "n_plans": n_plans,
            "records": records,
            "by_strategy": self.strategy_table(),
        }

    def to_jsonl(self) -> str:
        """One JSON line per plan entry."""
        lines = [json.dumps({"kind": "plan", **entry})
                 for entry in self.top_queries(len(self))]
        return "\n".join(lines) + ("\n" if lines else "")

    def export_jsonl(self, path: str | Path) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns lines written."""
        text = self.to_jsonl()
        Path(path).write_text(text, encoding="utf-8")
        return sum(1 for line in text.splitlines() if line)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.records = 0


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
