"""Regret ablation: feedback-driven strategy selection vs static policies.

The PR-6 acceptance benchmark.  Three policies run the same query mix:

* **best-static** — the single fixed strategy with the lowest measured
  mean per query (an oracle no online policy can beat);
* **worst-static** — the highest measured mean (what a wrong static
  rule costs);
* **feedback** — ``strategy="auto"`` with the runtime statistics
  feedback loop enabled, paying real probe executions before settling.

Regret is computed over *decision costs*: every round is priced at the
strategy's mean latency as measured by the online engine itself, so
the ablation isolates decision quality from cross-engine scheduler
drift (a dedicated static sweep is reported alongside as context — on
a noisy box the two can disagree about near-ties, which is exactly the
regime where the decisions barely matter).  The acceptance bar: the
feedback policy's total must land within 10% of best-static — probe
executions of the losing arm are the only thing it can lose, and they
amortize over the horizon.

A second part measures the recording overhead itself: a cold
``query()`` (fresh engine, plan-cache miss) with ``record_stats=True``
must cost at most 3% over ``record_stats=False`` (best-of-N on both
sides).

Artifacts at the repo root (the ``stats-smoke`` CI job uploads them):
``BENCH_PR6.json`` (per-query policy table, regret, overhead) and
``BENCH_PR6_STATS.json`` (the feedback engine's statistics snapshot).
``REPRO_REGRET_QUICK=1`` shrinks the corpus and the horizon for CI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.engine.plancache import normalize_query_text
from repro.engine.session import Engine
from repro.xmlkit.tree import Document, DocumentBuilder

BENCH_PR6_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
BENCH_PR6_STATS_PATH = BENCH_PR6_PATH.with_name("BENCH_PR6_STATS.json")

QUICK = os.environ.get("REPRO_REGRET_QUICK", "") not in ("", "0")
N_BOOKS = 900 if QUICK else 2400
STATIC_ROUNDS = 4 if QUICK else 8        # samples per (query, strategy) mean
FEEDBACK_ROUNDS = 16 if QUICK else 24    # the online policy's horizon
OVERHEAD_REPEATS = 7 if QUICK else 9

#: Table-3-style bare ``//``-twig mix: every query here is runnable
#: under both the merge-join choice and TwigStack, so static policies
#: genuinely differ.
PATTERN_QUERIES = ("//book[author]/title", "//book//last", "//book/price")
PATTERN_STRATEGIES = ("pipelined", "twigstack")

#: The BENCH_PR5 shape: a document past the parallel-upgrade threshold
#: where the partition hand-off may or may not pay for itself.
PARALLEL_QUERY = "//book/title"
PARALLEL_STRATEGIES = ("parallel", "pipelined")
PARALLEL_EXECUTOR = "threads:4"


def build_corpus(n_books: int = N_BOOKS) -> Document:
    builder = DocumentBuilder()
    builder.start_element("library")
    for i in range(n_books):
        builder.start_element("book", {"id": f"b{i}"})
        builder.start_element("author")
        builder.element("first", f"f{i % 13}")
        builder.element("last", f"l{i % 7}")
        builder.end_element()
        builder.element("title", f"title-{i}")
        builder.element("price", str(i % 97))
        builder.end_element()
    builder.end_element()
    return builder.finish()


def best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def static_means(doc: Document, queries, strategies,
                 executor: str | None) -> dict[tuple[str, str], float]:
    """Measured mean ms per (query, strategy) from a dedicated sweep."""
    means: dict[tuple[str, str], float] = {}
    for strategy in strategies:
        engine = Engine(doc)
        engine.index.build()
        for query in queries:
            for _ in range(STATIC_ROUNDS):
                engine.query(query, strategy=strategy, executor=executor)
            entry = engine.stats_store.get(
                normalize_query_text(query), strategy,
                engine.stats_fingerprint(),
                executor if executor is not None else "serial")
            assert entry is not None and entry.successes == STATIC_ROUNDS
            means[(query, strategy)] = entry.mean_ms
    return means


def run_feedback_policy(doc: Document, queries,
                        executor: str | None) -> tuple[Engine, dict]:
    """Run the online policy; returns the engine and its choice log."""
    engine = Engine(doc, feedback=True)
    engine.index.build()
    choices: dict[str, list[str]] = {query: [] for query in queries}
    for _ in range(FEEDBACK_ROUNDS):
        for query in queries:
            choices[query].append(
                engine.query(query, executor=executor).strategy)
    return engine, choices


def regret_rows(engine: Engine, sweep_means, choices, strategies,
                executor: str | None) -> tuple[list[dict], dict]:
    """Per-query policy costs (decision-priced) and the aggregate."""
    rows = []
    totals = {"feedback_ms": 0.0, "best_static_ms": 0.0,
              "worst_static_ms": 0.0}
    fingerprint = engine.stats_fingerprint()
    for query, chosen in choices.items():
        arms = engine.stats_store.arms(
            normalize_query_text(query), fingerprint,
            executor if executor is not None else "serial")
        online = {s: arm.mean_ms for s, arm in arms.items()
                  if arm.successes}
        assert set(chosen) <= set(online)
        best = min(online.values())
        worst = max(online.values())
        feedback_cost = sum(online[s] for s in chosen)
        rows.append({
            "query": query,
            "online_means_ms": {s: round(v, 3) for s, v in online.items()},
            "sweep_means_ms": {s: round(sweep_means[(query, s)], 3)
                               for s in strategies},
            "best_static": min(online, key=online.get),
            "settled": chosen[-1],
            "probe_rounds": sum(1 for s in chosen if s != chosen[-1]),
            "feedback_ms": round(feedback_cost, 3),
            "best_static_ms": round(best * len(chosen), 3),
            "worst_static_ms": round(worst * len(chosen), 3),
        })
        totals["feedback_ms"] += feedback_cost
        totals["best_static_ms"] += best * len(chosen)
        totals["worst_static_ms"] += worst * len(chosen)
    return rows, totals


def test_feedback_regret_within_10pct_and_overhead_within_3pct():
    doc = build_corpus()
    assert len(doc.nodes) >= 4_096       # the parallel upgrade must fire

    # -- pattern-query phase: merge join vs TwigStack ------------------
    means = static_means(doc, PATTERN_QUERIES, PATTERN_STRATEGIES, None)
    engine, choices = run_feedback_policy(doc, PATTERN_QUERIES, None)
    rows, totals = regret_rows(engine, means, choices,
                               PATTERN_STRATEGIES, None)

    # -- parallel phase: partition-parallel vs serial merged scan ------
    par_means = static_means(doc, (PARALLEL_QUERY,), PARALLEL_STRATEGIES,
                             PARALLEL_EXECUTOR)
    par_engine, par_choices = run_feedback_policy(doc, (PARALLEL_QUERY,),
                                                  PARALLEL_EXECUTOR)
    par_rows, par_totals = regret_rows(par_engine, par_means, par_choices,
                                       PARALLEL_STRATEGIES, PARALLEL_EXECUTOR)
    rows.extend(par_rows)
    for key, value in par_totals.items():
        totals[key] += value

    regret_pct = ((totals["feedback_ms"] - totals["best_static_ms"])
                  / totals["best_static_ms"] * 100.0)
    savings_vs_worst_pct = ((totals["worst_static_ms"] - totals["feedback_ms"])
                            / totals["worst_static_ms"] * 100.0)

    # Every feedback run settled (the explore phase is over well before
    # the horizon ends) and settled on the measured best arm.
    for row in rows:
        assert row["probe_rounds"] < FEEDBACK_ROUNDS
        assert row["settled"] in row["online_means_ms"]

    # -- recording overhead on the cold path ---------------------------
    overhead_doc = build_corpus(min(N_BOOKS, 1200))

    def cold_query(record_stats: bool) -> None:
        Engine(overhead_doc,
               record_stats=record_stats).query("//book[author]/title")

    on_s = best_of(OVERHEAD_REPEATS, lambda: cold_query(True))
    off_s = best_of(OVERHEAD_REPEATS, lambda: cold_query(False))
    overhead_pct = (on_s - off_s) / off_s * 100.0

    payload = {
        "benchmark": "feedback_regret_ablation",
        "quick": QUICK,
        "n_books": N_BOOKS,
        "n_nodes": len(doc.nodes),
        "static_rounds": STATIC_ROUNDS,
        "feedback_rounds": FEEDBACK_ROUNDS,
        "queries": rows,
        "feedback_ms": round(totals["feedback_ms"], 3),
        "best_static_ms": round(totals["best_static_ms"], 3),
        "worst_static_ms": round(totals["worst_static_ms"], 3),
        "regret_pct": round(regret_pct, 2),
        "savings_vs_worst_pct": round(savings_vs_worst_pct, 2),
        "demotions": (len(engine.stats_store.demotions)
                      + len(par_engine.stats_store.demotions)),
        "recording_overhead": {
            "repeats": OVERHEAD_REPEATS,
            "record_on_ms": round(on_s * 1e3, 3),
            "record_off_ms": round(off_s * 1e3, 3),
            "overhead_pct": round(overhead_pct, 2),
        },
    }
    BENCH_PR6_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")
    snapshot = {
        "pattern_phase": engine.stats_store.snapshot(top=10),
        "parallel_phase": par_engine.stats_store.snapshot(top=10),
    }
    BENCH_PR6_STATS_PATH.write_text(json.dumps(snapshot, indent=2) + "\n",
                                    encoding="utf-8")

    assert regret_pct <= 10.0, payload
    assert overhead_pct <= 3.0, payload["recording_overhead"]
