"""Workload child: one fresh process per run of one workload.

``python _workload_main.py '<json spec>'`` sets the workload up, prints
``READY <kernel seconds> <speed factor>`` (the parent times process
start -> READY as ``setup_s``),
then — unless the spec says ``setup_only`` — warms up, runs the phases
and prints ``RESULT <json>``.

An untraced run measures for ``seconds`` with tracing off and reports
the end-to-end metrics.  A traced run spends half of ``seconds``
untraced and half traced (same op code, benchmark-owned spans plus the
``trace=True`` span trees), so the difference between the halves is the
tracing overhead, then runs the per-layer probes.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from pathlib import Path

from calibrate import BLOCK_S, SHARE, kernel_ns, speed_factor
from common import (
    add_src_to_path,
    band_percentile,
    percentile,
    sha256_text,
)
from spans import NULL_RECORDER, OP, SpanRecorder, self_times
from workloads import WORKLOADS


#: Kernel runs before and after setup; their wall time is reported to
#: the parent, which takes it out of ``setup_s``.
SETUP_KERNEL_RUNS = 10


class Lane:
    """What one driver thread measured in one phase."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []       # as the clock read them
        self.calibrated_ns: list[float] = []    # at reference speed
        self.factors: list[float] = []          # one per block
        self.checks: list = []      # per op: [(key, digest)] or None
        self.errors: dict[str, int] = {}
        self.untimed_cpu_s = 0.0    # kernel runs and after_op hooks
        self.crash: BaseException | None = None


def drive(workload, lane_id: int, first: int, seconds: float, rec,
          lane: Lane) -> None:
    """Closed loop: the next op starts when the previous one returned.

    Ends on the first round boundary past ``seconds``, so every phase
    holds whole rounds of the same mix.  The loop is cut into blocks of
    ``BLOCK_S``; the calibration kernel runs between ops and each
    block's latencies are divided by the block's speed factor (see
    :mod:`calibrate`).
    """
    from repro.errors import ReproError

    i = first
    deadline = time.perf_counter() + seconds
    samples: list[int] = []
    block_from = 0
    block_end = 0.0

    def close_block() -> None:
        factor = speed_factor(samples)
        lane.factors.append(factor)
        lane.untimed_cpu_s += sum(samples) / 1e9
        lane.calibrated_ns.extend(
            ns / factor for ns in lane.latencies_ns[block_from:])

    try:
        while True:
            for _ in range(workload.round_size):
                if not samples:         # a new block opens
                    samples.append(kernel_ns())
                    block_end = time.perf_counter() + BLOCK_S
                    work_ns = 0
                fn = workload.op(i, lane_id)
                started = time.perf_counter_ns()
                try:
                    answers = fn(rec)
                except (ReproError, OSError, EOFError) as exc:
                    # A failed op, not a failed run: it counts against
                    # the workload and the loop goes on.
                    answers = None
                    name = type(exc).__name__
                    lane.errors[name] = lane.errors.get(name, 0) + 1
                latency = time.perf_counter_ns() - started
                lane.latencies_ns.append(latency)
                lane.checks.append(None if answers is None else [
                    (key, sha256_text(text)) for key, text in answers])
                cpu = time.process_time()
                workload.after_op()
                lane.untimed_cpu_s += time.process_time() - cpu
                work_ns += latency
                while sum(samples) < SHARE * work_ns:
                    samples.append(kernel_ns())
                i += 1
                if time.perf_counter() >= block_end:
                    close_block()
                    samples = []
                    block_from = len(lane.latencies_ns)
            if time.perf_counter() >= deadline:
                if samples:
                    close_block()
                return
    except BaseException as exc:     # re-raised by Phase on the main thread
        lane.crash = exc


class Phase:
    def __init__(self, workload, seconds: float, first: int,
                 traced: bool) -> None:
        self.recorders = [SpanRecorder() if traced else NULL_RECORDER
                          for _ in range(workload.lanes)]
        self.lanes = [Lane() for _ in range(workload.lanes)]
        external = workload.external_cpu_s()
        cpu = time.process_time()
        threads = [threading.Thread(
            target=drive, args=(workload, lane_id, first, seconds,
                                self.recorders[lane_id], self.lanes[lane_id]))
            for lane_id in range(1, workload.lanes)]
        for thread in threads:
            thread.start()
        drive(workload, 0, first, seconds, self.recorders[0], self.lanes[0])
        for thread in threads:
            thread.join()
        raw_cpu_s = (time.process_time() - cpu
                     - sum(lane.untimed_cpu_s for lane in self.lanes)
                     + workload.external_cpu_s() - external)
        for lane in self.lanes:
            if lane.crash is not None:
                raise lane.crash
        self.ops = sum(len(lane.latencies_ns) for lane in self.lanes)
        #: Op-time-weighted speed factor of the whole phase.
        self.factor = (sum(sum(lane.latencies_ns) for lane in self.lanes)
                       / sum(sum(lane.calibrated_ns) for lane in self.lanes))
        self.cpu_s = raw_cpu_s / self.factor
        self.next_index = first + max(
            len(lane.latencies_ns) for lane in self.lanes)

    @property
    def latencies_ms(self) -> list[float]:
        return sorted(ns / 1e6 for lane in self.lanes
                      for ns in lane.calibrated_ns)

    @property
    def ops_per_s(self) -> float:
        """Sum over lanes of ops / time spent inside ops (closed loop,
        no think time; untimed checks between ops do not count)."""
        return sum(len(lane.calibrated_ns) * 1e9 / sum(lane.calibrated_ns)
                   for lane in self.lanes)

    def spans(self) -> list[list]:
        """All lanes' spans as one list (parent indices shifted)."""
        merged: list[list] = []
        for rec in self.recorders:
            offset = len(merged)
            merged.extend(
                [name, start, end,
                 None if parent is None else parent + offset, op_id]
                for name, start, end, parent, op_id in rec.spans)
        return merged


def count_failed(workload, phases: list[Phase],
                 inject_wrong: bool) -> tuple[int, dict[str, int]]:
    """Ops that raised, or whose answer differs from the oracle's.

    The oracle runs once per distinct key, here, outside every clock.
    ``inject_wrong`` corrupts the first checked answer: the harness's
    own test that a wrong answer cannot pass.
    """
    failed = 0
    errors: dict[str, int] = {}
    expected: dict = {}
    for phase in phases:
        for lane in phase.lanes:
            for name, count in lane.errors.items():
                errors[name] = errors.get(name, 0) + count
            for answers in lane.checks:
                if answers is None:
                    failed += 1
                    continue
                for key, digest in answers:
                    if key not in expected:
                        text = workload.oracle(key)
                        expected[key] = (None if text is None
                                         else sha256_text(text))
                    if expected[key] is None:
                        continue
                    if inject_wrong:
                        digest, inject_wrong = "injected", False
                    if digest != expected[key]:
                        failed += 1
                        errors["WrongAnswer"] = errors.get(
                            "WrongAnswer", 0) + 1
                        break
    return failed, errors


def end_to_end(workload, phase: Phase) -> dict[str, float]:
    latencies = phase.latencies_ms
    return {
        "ops_per_s": phase.ops_per_s,
        "latency_ms_p50": band_percentile(latencies, 0.50),
        "latency_ms_p90": band_percentile(latencies, 0.90),
        "cpu_ms_per_op": phase.cpu_s * 1e3 / phase.ops,
        "peak_rss_mb": workload.holder_maxrss_kb() / 1024,
    }


def per_layer(workload, untraced: Phase, traced: Phase, blocks: int,
              trace_path: Path) -> dict[str, float]:
    import probes

    spans = traced.spans()
    own = self_times(spans)
    own.pop(OP, None)       # the harness's loop is not a layer
    op_wall_ns = sum(ns for lane in traced.lanes for ns in lane.latencies_ns)
    mean_traced = statistics.fmean(traced.latencies_ms)
    mean_untraced = statistics.fmean(untraced.latencies_ms)
    cache = workload.plan_cache_stats()     # before the probes touch it
    lookups = cache["hits"] + cache["misses"]
    metrics = {
        "trace.coverage_share": sum(own.values()) / op_wall_ns,
        "obs.trace_overhead_share":
            (mean_traced - mean_untraced) / mean_untraced,
        "engine.plancache_hit_ratio": cache["hits"] / max(lookups, 1),
        "engine.plancache_evictions": cache["evictions"],
        "client.latency_ms_p99": percentile(untraced.latencies_ms, 0.99),
        "bench.speed_factor": statistics.median(
            factor for phase in (untraced, traced)
            for lane in phase.lanes for factor in lane.factors),
    }
    own_metrics, detail = workload.layer_metrics(spans, blocks)
    metrics.update(own_metrics)
    metrics.update(probes.xmlkit_probes(workload.xml_files(), blocks))
    shape_metrics, shape_rows = probes.shape_probes(workload.shapes(), blocks)
    metrics.update(shape_metrics)
    detail += [{"detail": "shape", **row} for row in shape_rows]
    db, path_query = workload.probe_db()
    metrics.update(probes.executor_probes(db, path_query, blocks))
    metrics.update(probes.codec_probes(db.query(path_query), blocks))

    layer_ms = {layer: ns / 1e6 / traced.ops for layer, ns in own.items()}
    with trace_path.open("w", encoding="utf-8") as out:
        out.write(json.dumps({"detail": "self_ms_per_op", **layer_ms}) + "\n")
        for row in detail:
            out.write(json.dumps(row) + "\n")
        for index, (name, start, end, parent, op_id) in enumerate(spans):
            out.write(json.dumps({
                "span": index, "name": name, "start_ns": start,
                "end_ns": end, "parent": parent, "op_id": op_id}) + "\n")
    return metrics


def run(workload, spec: dict) -> dict:
    seconds = spec["seconds"]
    warm = Phase(workload, 0.0, 0, traced=False)        # one round per lane
    if spec["traced"]:
        untraced = Phase(workload, seconds / 2, warm.next_index, traced=False)
        traced = Phase(workload, seconds / 2, untraced.next_index,
                       traced=True)
        phases = [untraced, traced]
    else:
        phases = [Phase(workload, seconds, warm.next_index, traced=False)]
        metrics = end_to_end(workload, phases[0])   # RSS before the oracle
    failed, errors = count_failed(workload, phases, spec["inject_wrong"])
    if spec["traced"]:
        metrics = per_layer(workload, untraced, traced,
                            1 if spec["quick"] else 3,
                            Path(spec["trace_path"]))
    return {
        "attempted": sum(phase.ops for phase in phases),
        "failed": failed,
        "errors": errors,
        "speed_factor": statistics.fmean(phase.factor for phase in phases),
        "metrics": metrics,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    add_src_to_path()
    workload = WORKLOADS[spec["workload"]](Path(spec["inputs"]), spec["seed"])
    try:
        # The kernel runs in this process, around the setup it scales:
        # the parent's core may be running at another speed.
        kernel_started = time.perf_counter()
        samples = [kernel_ns() for _ in range(SETUP_KERNEL_RUNS)]
        kernel_s = time.perf_counter() - kernel_started
        workload.setup()
        kernel_started = time.perf_counter()
        samples += [kernel_ns() for _ in range(SETUP_KERNEL_RUNS)]
        kernel_s += time.perf_counter() - kernel_started
        print(f"READY {kernel_s} {speed_factor(samples)}", flush=True)
        if not spec["setup_only"]:
            print("RESULT " + json.dumps(run(workload, spec)), flush=True)
    finally:
        workload.close()


if __name__ == "__main__":
    main()
