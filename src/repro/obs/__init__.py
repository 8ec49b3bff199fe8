"""Query observability: span tracing, metrics, export, slow-query log.

The engine's whole argument — and the paper's (Section 6, Table 3) —
rests on *measuring* where time and work go.  This package is the
measuring instrument, threaded through the session/compiler/optimizer/
executor stack and the physical operators:

* :mod:`repro.obs.trace` — a zero-dependency span tracer with a
  context-manager API (per-query span trees: compile → optimize →
  match/join/bind/finish, one child span per NoK scan and per
  inter-edge join).
* :mod:`repro.obs.metrics` — a process-wide registry of labeled
  counters, gauges and histograms fed from
  :class:`~repro.xmlkit.storage.ScanCounters` and from hooks in the
  physical operators.
* :mod:`repro.obs.export` — JSON-lines trace export, Prometheus-style
  text exposition, and a pretty span-tree renderer.
* :mod:`repro.obs.slowlog` — a configurable slow-query log used by
  :class:`~repro.engine.database.Database` and the query service: the
  one per-query record (text, plan, elapsed time, counter deltas).

Nothing in here imports from the engine or operator layers, so every
layer may depend on ``repro.obs`` without cycles.
"""

from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, QueryTrace, Span, Tracer
from repro.obs.export import prometheus_text, render_span_tree, trace_to_jsonl
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QueryTrace",
    "REGISTRY",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "Tracer",
    "prometheus_text",
    "render_span_tree",
    "trace_to_jsonl",
]
