"""Slow-query log: record queries whose wall time crosses a threshold.

Databases live and die by this instrument; ours records, per offending
query, everything needed to reproduce and diagnose it offline: the
query text, the strategy the caller asked for, the plan the optimizer
chose, the elapsed wall time, and the full work-counter snapshot
(nodes scanned, comparisons, buffering) of the run.

The log is bounded (a ring of ``max_entries``) and can additionally
stream JSON lines to a file for post-mortem analysis::

    db = Database.from_xml(xml)
    db.configure_slow_log(threshold_ms=50.0, path="slow.jsonl")
    db.query("//a//b")          # recorded iff it took >= 50 ms
    for record in db.slow_log.entries:
        print(record.describe())
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY

__all__ = ["SlowQueryLog", "SlowQueryRecord"]

_SLOW = REGISTRY.counter("repro_slow_queries_total",
                         "Queries exceeding the slow-query threshold")


@dataclass
class SlowQueryRecord:
    """One slow query: what ran, how it was planned, what it cost.

    ``snapshot_id`` and ``deadline_state`` are filled by the serving
    layer (queries routed through
    :class:`~repro.serve.service.QueryService`): which immutable
    snapshot served the query, and where its deadline stood when the
    record was made — ``"none"`` (no deadline set), ``"ok"`` (finished
    within it) or ``"expired"`` (the query timed out).  ``client`` is
    the caller identity the network server attaches
    (``connection#request``), so remote slow queries are attributable
    to the connection that sent them.  Plain ``Database`` queries
    leave all three at their defaults.
    """

    query: str
    strategy: str
    plan: str
    elapsed_ms: float
    counters: dict[str, int] = field(default_factory=dict)
    timestamp: float = 0.0
    snapshot_id: int | None = None
    deadline_state: str = "none"
    client: str | None = None

    def to_json(self) -> str:
        return json.dumps({
            "timestamp": self.timestamp,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "query": self.query,
            "strategy": self.strategy,
            "plan": self.plan,
            "counters": self.counters,
            "snapshot_id": self.snapshot_id,
            "deadline_state": self.deadline_state,
            "client": self.client,
        })

    def describe(self) -> str:
        tags = ""
        if self.snapshot_id is not None:
            tags += f" snapshot={self.snapshot_id}"
        if self.deadline_state != "none":
            tags += f" deadline={self.deadline_state}"
        if self.client is not None:
            tags += f" client={self.client}"
        return (f"[{self.elapsed_ms:.1f} ms] strategy={self.strategy}{tags} "
                f"plan={self.plan!r} counters={self.counters} "
                f"query={self.query!r}")


class SlowQueryLog:
    """Bounded in-memory slow-query ring with optional JSONL streaming.

    ``threshold_ms`` must be a finite number >= 0 and ``max_entries`` an
    int >= 1; anything else raises :class:`~repro.errors.UsageError`
    (a NaN threshold would log every query, an empty ring would hand
    back records it does not keep).
    """

    def __init__(self, threshold_ms: float = 100.0,
                 path: str | Path | None = None,
                 max_entries: int = 1000) -> None:
        if (isinstance(threshold_ms, bool)
                or not isinstance(threshold_ms, (int, float))
                or not (math.isfinite(threshold_ms) and threshold_ms >= 0)):
            raise UsageError("threshold_ms= expects a finite number >= 0, "
                             f"got {threshold_ms!r}")
        if (isinstance(max_entries, bool) or not isinstance(max_entries, int)
                or max_entries < 1):
            raise UsageError(
                f"max_entries= expects an int >= 1, got {max_entries!r}")
        self.threshold_ms = threshold_ms
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            # A misconfigured log directory must not break queries.
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.entries: list[SlowQueryRecord] = []

    def observe(self, query: str, strategy: str, plan: str,
                elapsed_ms: float,
                counters: dict[str, int] | None = None, *,
                snapshot_id: int | None = None,
                deadline_state: str = "none",
                client: str | None = None) -> SlowQueryRecord | None:
        """Record the query iff it crossed the threshold.

        Returns the record when one was made, ``None`` otherwise.
        """
        if elapsed_ms < self.threshold_ms:
            return None
        record = SlowQueryRecord(query=query, strategy=strategy, plan=plan,
                                 elapsed_ms=elapsed_ms,
                                 counters=dict(counters or {}),
                                 timestamp=time.time(),
                                 snapshot_id=snapshot_id,
                                 deadline_state=deadline_state,
                                 client=client)
        self.entries.append(record)
        if len(self.entries) > self.max_entries:
            del self.entries[:len(self.entries) - self.max_entries]
        if self.path is not None:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(record.to_json() + "\n")
        _SLOW.inc()
        return record

    def clear(self) -> None:
        self.entries.clear()

    def close(self) -> None:
        """Flush point for :meth:`Database.close`.

        Records stream to the JSONL file eagerly on :meth:`observe`
        (the file is opened and closed per record), so there is nothing
        buffered to write — this exists so the database's lifecycle has
        a single, explicit quiesce call.
        """

    def __len__(self) -> int:
        return len(self.entries)
