"""Per-layer probes: each times calls into one layer's public functions.

Every number here comes from outside the program — a clock around a
public call, or the span tree / counters the public ``trace=True`` and
``counters=`` options already return.  Stages are timed with PR 8's
estimator (:func:`best_of`): GC off, min within a block (discards slow
outliers), median across blocks (robust to a block hit by migration).
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

from spans import ENGINE_LAYERS

def best_of(fn, blocks: int, reps: int) -> float:
    """Seconds per call: min within block, median across blocks."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        per_block = []
        for _ in range(blocks):
            best = float("inf")
            for _ in range(reps):
                started = time.perf_counter_ns()
                fn()
                best = min(best, time.perf_counter_ns() - started)
            per_block.append(best)
        return statistics.median(per_block) / 1e9
    finally:
        if was_enabled:
            gc.enable()


def xmlkit_probes(xml_files: list[Path], blocks: int) -> dict[str, float]:
    """Ingest and copy costs over the workload's own input files
    (summed over files, so ``setup_s`` can be read against them)."""
    import repro
    from repro.serve.snapshot import fork_document
    from repro.xmlkit.arena import DocumentArena
    from repro.xmlkit.binary import dump, load
    from repro.xmlkit.index import TagIndex
    from repro.xmlkit.stats import compute_stats
    from repro.xmlkit.summary import build_summary

    out = dict.fromkeys(("parse_s", "stats", "summary", "tagindex",
                         "binary_load", "fork", "arena_build"), 0.0)
    megabytes = arena_bytes = nodes = 0
    for path in xml_files:
        text = path.read_text(encoding="utf-8")
        megabytes += len(text.encode("utf-8")) / 1e6
        doc = repro.parse(text)
        nodes += len(doc.nodes)
        binary = dump(doc)
        arena_bytes += len(DocumentArena.from_document(doc).to_bytes())
        out["parse_s"] += best_of(lambda: repro.parse(text), blocks, 1)
        out["stats"] += best_of(
            lambda: compute_stats(doc, with_size=False), blocks, 2)
        out["summary"] += best_of(lambda: build_summary(doc), blocks, 2)
        out["tagindex"] += best_of(lambda: TagIndex(doc).build(), blocks, 2)
        out["binary_load"] += best_of(lambda: load(binary), blocks, 1)
        out["fork"] += best_of(lambda: fork_document(doc), blocks, 1)
        out["arena_build"] += best_of(
            lambda: DocumentArena.from_document(doc), blocks, 1)
    return {
        "xmlkit.parse_ms_per_mb": out["parse_s"] * 1e3 / megabytes,
        "xmlkit.stats_ms": out["stats"] * 1e3,
        "xmlkit.summary_ms": out["summary"] * 1e3,
        "xmlkit.tagindex_ms": out["tagindex"] * 1e3,
        "xmlkit.binary_load_ms": out["binary_load"] * 1e3,
        "xmlkit.fork_ms": out["fork"] * 1e3,
        "xmlkit.arena_build_ms": out["arena_build"] * 1e3,
        "xmlkit.arena_bytes_per_node": arena_bytes / nodes,
    }


def codec_probes(result, blocks: int) -> dict[str, float]:
    """Serialization and wire codec cost on one recorded result."""
    from repro.serve.protocol import (
        decode_frame,
        decode_item,
        encode_frame,
        encode_item,
    )

    n_items = max(len(result), 1)
    megabytes = max(len(result.serialize().encode("utf-8")), 1) / 1e6
    frame_body: list[bytes] = []

    def encode() -> None:
        frame = encode_frame({"type": "result_chunk", "id": 1, "items": [
            encode_item(item) for item in result.items]})
        frame_body[:] = [frame[4:]]

    def decode() -> None:
        for item in decode_frame(frame_body[0])["items"]:
            decode_item(item)

    encode_s = best_of(encode, blocks, 3)
    return {
        "xmlkit.serialize_mb_per_s":
            megabytes / best_of(result.serialize, blocks, 3),
        "serve.encode_us_per_item": encode_s * 1e6 / n_items,
        "serve.decode_us_per_item":
            best_of(decode, blocks, 3) * 1e6 / n_items,
    }


def _layer_self_ms(trace) -> dict[str, float]:
    """Self time per layer of one ``result.trace`` tree, in ms."""
    totals: dict[str, float] = {}
    for _depth, span in trace.walk():
        layer = ENGINE_LAYERS.get(span.name, "engine.other")
        own = span.duration_ns - sum(c.duration_ns for c in span.children)
        totals[layer] = totals.get(layer, 0.0) + own / 1e6
    return totals


def shape_probes(shapes: list[tuple], blocks: int) -> tuple[dict, list]:
    """Scan, join, bind and finish cost of each distinct query shape.

    ``shapes`` holds ``(label, engine, text, params)``.  The scan is
    timed by calling ``merged_scan`` directly on the shape's own NoK
    decomposition; the rest is read from the span tree of a
    ``trace=True`` execution (median of ``blocks`` executions).  The
    named metrics are sums over the workload's shapes — "one of each";
    the per-shape rows go to the trace file.
    """
    from repro.engine.compiler import compile_query
    from repro.pattern.artifact import prepare_artifacts
    from repro.physical.nok_merge import merged_scan
    from repro.xmlkit.storage import ScanCounters

    layers = ("physical.join", "physical.twigstack", "engine.bind",
              "engine.finish", "engine.shell")
    sums = dict.fromkeys(layers, 0.0)
    scan_s = 0.0
    scan_nodes = scan_comparisons = bind_tuples = survivors = 0
    rows = []
    for label, engine, text, params in shapes:
        row: dict = {"shape": label, "text": text}
        samples: dict[str, list[float]] = {layer: [] for layer in layers}
        for _ in range(blocks):
            trace = engine.query(text, params=params, trace=True).trace
            own = _layer_self_ms(trace)
            for layer in layers:
                samples[layer].append(own.get(layer, 0.0))
        if trace.find("merged-scan") is not None:
            # Only shapes whose plan really scans: recursive datasets
            # run TwigStack over the tag index instead.
            noks = prepare_artifacts(
                compile_query(text).tree).decomposition.noks
            counters = ScanCounters()
            merged_scan(noks, engine.doc, counters)
            seconds = best_of(lambda: merged_scan(noks, engine.doc),
                              blocks, 1)
            scan_s += seconds
            scan_nodes += counters.nodes_scanned
            scan_comparisons += counters.comparisons
            row.update(scan_ms=seconds * 1e3,
                       scan_nodes=counters.nodes_scanned,
                       scan_comparisons=counters.comparisons)
        for layer in layers:
            median = statistics.median(samples[layer])
            sums[layer] += median
            row[layer + "_ms"] = median
        bind = trace.find("bind-phase")
        finish = trace.find("finish-phase")
        if bind is not None:
            bind_tuples += bind.attrs.get("tuples", 0)
            row["bind_tuples"] = bind.attrs.get("tuples", 0)
        if finish is not None:
            survivors += finish.attrs.get("surviving", 0)
            row["finish_survivors"] = finish.attrs.get("surviving", 0)
        rows.append(row)
    metrics = {layer + "_ms": value for layer, value in sums.items()}
    metrics.update({
        "physical.scan_ms": scan_s * 1e3,
        "physical.scan_ns_per_node": scan_s * 1e9 / max(scan_nodes, 1),
        "physical.scan_nodes": scan_nodes,
        "physical.scan_comparisons": scan_comparisons,
        "engine.bind_tuples": bind_tuples,
        "engine.finish_survivors": survivors,
    })
    return metrics, rows


def executor_probes(db, path_query: str, blocks: int) -> dict[str, float]:
    """The same path query under each ``executor=`` backend."""
    out = {}
    for name, strategy, executor in (
            ("serial", "pipelined", "serial"),
            ("threads2", "parallel", "threads:2"),
            ("processes2", "parallel", "processes:2")):
        def run() -> None:
            db.query(path_query, strategy=strategy, executor=executor)

        run()       # pools, arena file and plan exist before the clock
        out[f"physical.scan_{name}_ms"] = best_of(run, blocks, 2) * 1e3
    return out


def compile_probes(engine, texts: list[str], empty_text: str,
                   blocks: int) -> tuple[dict, list]:
    """Compile pipeline, stage by stage, over never-seen query texts.

    ``engine.prepare`` on a new text is the true cold miss (no lint or
    verification memo can know it), so it is one sample per text and
    the metric is the mean; each stage is then timed on the same text
    by calling the stage's public function directly.
    """
    from repro.analysis import verify_plan, verify_tree
    from repro.analysis.query import analyze_query
    from repro.engine.compiler import compile_query
    from repro.engine.optimizer import choose_strategy
    from repro.engine.prepared import CachedPlan
    from repro.pattern.artifact import prepare_artifacts
    from repro.pattern.build import build_blossom_tree
    from repro.xquery.parser import parse_query

    stage_names = ("xquery.parse", "pattern.build", "pattern.artifacts",
                   "analysis.lint", "analysis.verify", "engine.optimize")
    sums = dict.fromkeys(stage_names, 0.0)
    miss = hit = 0.0
    rows = []
    stats, summary = engine.stats, engine.summary
    for text in texts:
        gc.disable()
        try:
            started = time.perf_counter_ns()
            engine.prepare(text)
            miss_s = (time.perf_counter_ns() - started) / 1e9
        finally:
            gc.enable()
        hit_s = best_of(lambda: engine.prepare(text), blocks, 5)
        compiled = compile_query(text)
        tree, flwor = compiled.tree, compiled.flwor
        lint_flwor = None if compiled.is_bare_path else flwor
        choice = choose_strategy(stats, tree, compiled.is_bare_path,
                                 has_index=True)
        artifacts = prepare_artifacts(tree)
        plan = CachedPlan(compiled, choice, artifacts, "auto")

        def verify() -> None:
            verify_tree(tree, source=text, flwor=lint_flwor,
                        external=compiled.parameters)
            verify_plan(plan, recursive_document=stats.recursive,
                        tree_verified=True)

        stages = {
            "xquery.parse": lambda: parse_query(text),
            "pattern.build": lambda: build_blossom_tree(
                flwor, external=compiled.parameters),
            "pattern.artifacts": lambda: prepare_artifacts(tree),
            "analysis.lint": lambda: analyze_query(
                tree, summary, flwor=lint_flwor, source=text),
            "analysis.verify": verify,
            "engine.optimize": lambda: choose_strategy(
                stats, tree, compiled.is_bare_path, has_index=True),
        }
        row = {"text": text, "prepare_miss_us": miss_s * 1e6,
               "prepare_hit_us": hit_s * 1e6}
        for name, fn in stages.items():
            seconds = best_of(fn, blocks, 5)
            sums[name] += seconds
            row[name + "_us"] = seconds * 1e6
        miss += miss_s
        hit += hit_s
        rows.append(row)
    n = len(texts)
    metrics = {name + "_us": total * 1e6 / n for name, total in sums.items()}
    metrics["engine.prepare_miss_us"] = miss * 1e6 / n
    metrics["engine.prepare_hit_us"] = hit * 1e6 / n
    metrics["engine.plan_glue_us"] = (miss - sum(sums.values())) * 1e6 / n
    engine.query(empty_text)        # the static-empty plan is cached now
    metrics["analysis.static_empty_us"] = best_of(
        lambda: engine.query(empty_text), blocks, 20) * 1e6
    return metrics, rows


def table3_grid(dbs: dict, blocks: int) -> tuple[dict, list]:
    """The paper's Table 3 as numbers: per dataset and system, the sum
    of the six per-query medians under the explicit strategy.

    A cell that exceeds the legacy harness's work budget is DNF
    (deterministic: the budget counts scanned nodes); it runs once,
    adds nothing to the sum and is counted in ``table3.dnf_cells``.
    """
    from repro.bench.harness import (
        DEFAULT_BUDGET_FACTOR,
        SYSTEMS,
        systems_for,
    )
    from repro.datagen import DATASETS
    from repro.errors import DNFError

    metrics: dict[str, float] = {}
    rows = []
    dnf_cells = 0
    for name, db in dbs.items():
        budget = DEFAULT_BUDGET_FACTOR * len(db.doc.nodes)
        for system in systems_for(name):
            total_ms = 0.0
            for spec in DATASETS[name].queries:
                def run() -> None:
                    db.engine.query(spec.text, strategy=SYSTEMS[system],
                                    work_budget=budget)

                try:
                    run()
                    cell_ms = best_of(run, blocks, 1) * 1e3
                    total_ms += cell_ms
                except DNFError:
                    cell_ms = None
                    dnf_cells += 1
                rows.append({"dataset": name, "system": system,
                             "query": spec.qid, "ms": cell_ms})
            metrics[f"table3.{name}.{system}_ms"] = total_ms
    metrics["table3.dnf_cells"] = dnf_cells
    return metrics, rows
