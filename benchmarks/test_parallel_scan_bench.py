"""Partition-parallel scan benchmark: serial vs parallel merged scans.

The PR-5 acceptance benchmark, in two parts:

* **degenerate-cost guard** — ``parallel_merged_scan`` handed a single
  partition must delegate to the serial scan, so its wall time stays
  within 5% of calling :func:`merged_scan` directly (best-of-N to keep
  the comparison scheduler-honest);
* **recorded sweep** — the same query at parallelism 1/2/4 over one
  large corpus, results asserted bit-identical to serial, timings
  written to ``BENCH_PR5.json`` at the repo root (the parallel-smoke CI
  job uploads it as an artifact).  Python threads share the GIL, so the
  sweep documents the overhead curve rather than promising a speedup.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.pattern import build_from_path, decompose
from repro.physical import merged_scan
from repro.engine.backend import ExecutionBackend
from repro.physical.parallel_scan import parallel_merged_scan
from repro.xmlkit.partition import partition_document
from repro.xmlkit.tree import Document, DocumentBuilder
from repro.xpath import parse_xpath

BENCH_PR5_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"
REPEATS = int(os.environ.get("REPRO_PARALLEL_BENCH_REPEATS", "5"))
N_BOOKS = int(os.environ.get("REPRO_PARALLEL_BENCH_BOOKS", "4000"))

QUERY = "//book[author]/title"


def build_corpus(n_books: int = N_BOOKS) -> Document:
    builder = DocumentBuilder()
    builder.start_element("library")
    for i in range(n_books):
        builder.start_element("book", {"id": f"b{i}"})
        builder.element("author", f"author-{i % 211}")
        builder.element("title", f"title-{i}")
        builder.element("price", str(i % 97))
        builder.end_element()
    builder.end_element()
    return builder.finish()


def noks_for(path_text: str):
    return decompose(build_from_path(parse_xpath(path_text))).noks


def best_of(repeats: int, run) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs (and the last result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def nid_lists(results: dict) -> dict[int, list[int]]:
    return {nok_id: [e.node.nid for e in entries]
            for nok_id, entries in results.items()}


def test_single_partition_overhead_within_5pct_and_record_sweep():
    doc = build_corpus()
    backend = ExecutionBackend("threads", 4)

    serial_s, serial_results = best_of(
        REPEATS, lambda: merged_scan(noks_for(QUERY), doc))
    serial_nids = nid_lists(serial_results)

    timings: dict[str, float] = {"serial_ms": round(serial_s * 1e3, 3)}
    for parallelism in (1, 2, 4):
        partitions = partition_document(doc, parallelism)

        def run_parallel(partitions=partitions):
            return parallel_merged_scan(noks_for(QUERY), doc,
                                        partitions=partitions,
                                        backend=backend, variables={})

        par_s, par_results = best_of(REPEATS, run_parallel)
        # Theorem 1: partition-order concatenation is bit-identical to
        # the serial scan — order included — at every parallelism.
        assert nid_lists(par_results) == serial_nids
        timings[f"parallel_{parallelism}_ms"] = round(par_s * 1e3, 3)
        timings[f"n_partitions_{parallelism}"] = len(partitions)

    overhead_pct = (timings["parallel_1_ms"] / timings["serial_ms"] - 1) * 100
    BENCH_PR5_PATH.write_text(json.dumps({
        "benchmark": "partition_parallel_merged_scan",
        "query": QUERY,
        "n_nodes": len(doc.nodes),
        "repeats": REPEATS,
        "single_partition_overhead_pct": round(overhead_pct, 2),
        **timings,
    }, indent=2) + "\n", encoding="utf-8")

    assert overhead_pct <= 5.0, (
        f"single-partition parallel scan is {overhead_pct:.1f}% slower than "
        f"serial (limit 5%): the one-partition path must stay a delegate")
