"""A tour of the observability layer (tracing, metrics, EXPLAIN ANALYZE).

Runs the paper's Example 1 FLWOR under ``trace=True`` and shows every
surface the :mod:`repro.obs` package offers:

* the span tree of one traced query (phases, per-NoK scans, per-edge
  structural joins),
* ``Engine.explain_analyze`` — per-operator measured work next to the
  cost model's estimates,
* the process-wide metrics registry in Prometheus text exposition,
* the slow-query log on a :class:`~repro.engine.database.Database`,
* per-strategy latency from the registry's
  ``repro_query_latency_ms{strategy}`` histogram, beside ``db.stats()``.

Run with::

    python examples/observability_tour.py
"""

from repro import Engine, parse
from repro.engine.database import Database
from repro.obs import REGISTRY, prometheus_text

from example1_bookpairs import DOCUMENT, QUERY


def main() -> None:
    doc = parse(DOCUMENT)
    engine = Engine(doc)

    print("== 1. A traced query: the span tree ==")
    result = engine.query(QUERY, trace=True)
    print(f"{len(result)} items in {result.trace.total_ms:.3f} ms\n")
    print(result.trace.pretty())

    print("\n== 2. EXPLAIN ANALYZE: estimates vs. actuals ==")
    print(engine.explain_analyze(QUERY))

    print("\n== 3. Trace export: JSON lines (first three spans) ==")
    for line in result.trace.to_jsonl().splitlines()[:3]:
        print(f"  {line}")

    print("\n== 4. Process metrics (Prometheus text exposition) ==")
    text = prometheus_text(REGISTRY)
    shown = [ln for ln in text.splitlines() if not ln.startswith("#")]
    for line in shown[:20]:
        print(f"  {line}")
    if len(shown) > 20:
        print(f"  ... ({len(shown) - 20} more sample lines)")

    print("\n== 5. The slow-query log ==")
    db = Database(doc, slow_query_ms=0.0)   # threshold 0: log everything
    db.query(QUERY)
    db.query("//book/title", strategy="pipelined")
    for record in db.slow_log.entries:
        print(f"  {record.describe()}")

    print("\n== 6. Per-strategy latency ==")
    observed = Database(doc)
    for _ in range(3):                      # auto, then one rival strategy
        observed.query("//book[author]/title")
        observed.query("//book[author]/title", strategy="twigstack")
    latency = REGISTRY.get("repro_query_latency_ms")
    for strategy in ("pipelined", "twigstack"):
        print(f"  {strategy:<10} n={latency.count(strategy=strategy)}"
              f" p50={latency.quantile(0.5, strategy=strategy):.3f}ms")
    plan_cache = observed.stats()["plan_cache"]
    print(f"  plan cache: {plan_cache['hits']} hits,"
          f" {plan_cache['misses']} misses")
    print("  (process-wide, every query above counted; the plan `auto`"
          " runs never reads these numbers)")


if __name__ == "__main__":
    main()
