"""The benchmark's one command.

Two ways in, one code path (:func:`run_one`):

* the driver's contract — ``run.py --workload W --seed N --seconds S
  --trace 0|1`` runs one workload once and prints, as its last line,
  ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
  metrics (``--trace 0``) or the per-layer metrics (``--trace 1``);
* the suite — ``run.py [--seed N] [--workload W] [--no-traced]
  [--quick] [--out DIR]`` runs every workload untraced and traced,
  prints every metric by name with its unit, writes one
  schema-versioned record to ``<out>/record-seed<N>.json`` and one
  ``<out>/trace-<workload>.jsonl`` per workload, and ends with a summary
  line whose ``claim`` is ``null``: this command measures, it never
  claims.

Each run is a fresh child process (``_workload_main.py``) started with
``PYTHONHASHSEED=0``; inputs are generated from the seed and written
under ``<out>/inputs`` before any clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    SCHEMA_VERSION,
    SRC,
    add_src_to_path,
    declared,
    load_spec,
    machine_facts,
)

#: Fresh processes timed from start to READY per run; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class WorkloadCrashed(RuntimeError):
    pass


def start_child(spec: dict, tmp: Path) -> tuple[subprocess.Popen, float]:
    """Start a workload child; returns it and its start -> READY time
    at reference speed (the child times the kernel around its setup and
    reports how long that took and the factor it saw)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "_workload_main.py"),
         json.dumps(spec)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "TMPDIR": str(tmp)})
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()         # a setup that hangs must not hang the run
    line = child.stdout.readline()
    watchdog.cancel()
    ready_s = time.perf_counter() - started
    words = line.split()
    if len(words) != 3 or words[0] != "READY":
        child.kill()
        child.wait()
        child.stdout.close()
        raise WorkloadCrashed(
            f"{spec['workload']}: setup failed (exit {child.returncode})")
    return child, (ready_s - float(words[1])) / float(words[2])


def finish_child(child: subprocess.Popen, workload: str) -> str:
    """Everything the child still prints; the child is reaped."""
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise WorkloadCrashed(f"{workload}: timed out") from None
    if child.returncode != 0:
        raise WorkloadCrashed(f"{workload}: exit {child.returncode}")
    return output


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            quick: bool, out: Path, inject_wrong: bool = False) -> dict:
    """One run of one workload: inputs, setup samples, the measured
    child.  Raises :class:`WorkloadCrashed` if a child dies."""
    from inputs import write_inputs

    inputs_dir = out / "inputs" / f"{workload}-seed{seed}"
    digests = write_inputs(workload, seed, inputs_dir)
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "quick": quick, "inputs": str(inputs_dir),
            "trace_path": str(out / f"trace-{workload}.jsonl"),
            "inject_wrong": inject_wrong, "setup_only": True}
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        child, ready_s = start_child(spec, tmp)
        finish_child(child, workload)
        setup.append(ready_s)
    child, ready_s = start_child({**spec, "setup_only": False}, tmp)
    setup.append(ready_s)
    output = finish_child(child, workload)
    results = [line for line in output.splitlines()
               if line.startswith("RESULT ")]
    if not results:
        raise WorkloadCrashed(f"{workload}: no result")
    result = json.loads(results[-1][len("RESULT "):])
    if not traced:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["inputs"] = digests
    result["setup_samples_s"] = setup
    return result


def with_units(values: dict[str, float], declarations: dict[str, dict],
               fill: bool) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for the declared metrics.

    An undeclared name is a bug in the harness, not a metric.  With
    ``fill`` a declared metric the workload has no such layer for reads
    0 (the driver wants every name in every traced run); without it the
    metric is left out.
    """
    undeclared = sorted(set(values) - set(declarations))
    if undeclared:
        raise SystemExit(f"undeclared metrics emitted: {undeclared}")
    return {name: {"value": values.get(name, 0), "unit": entry["unit"]}
            for name, entry in declarations.items()
            if fill or name in values}


def print_metrics(workload: str, metrics: dict[str, dict],
                  result: dict) -> None:
    print(f"-- {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']} {result['errors'] or ''}")
    for name, entry in metrics.items():
        print(f"   {name:34s} {entry['value']:>14.4f} {entry['unit']}")


def contract_run(args, spec: dict) -> int:
    section = "per_layer" if args.trace else "end_to_end"
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick, args.out,
                     args.inject_wrong_answer)
    metrics = with_units(result["metrics"], declared(spec, section),
                         fill=True)
    print_metrics(args.workload, metrics, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics}))
    return 0


def suite_run(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]
             if args.workload in (None, w["name"])]
    if not names:
        raise SystemExit(f"unknown workload {args.workload!r}")
    record = {
        "schema_version": SCHEMA_VERSION, "seed": args.seed,
        "seconds": args.seconds, "quick": args.quick,
        "machine": machine_facts(), "workloads": {},
    }
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in names:
        entry = record["workloads"][name] = {
            "why": whys[name], "attempted": 0, "failed": 0, "errors": {}}
        runs = [("end_to_end", False)]
        if args.traced:
            runs.append(("per_layer", True))
        for section, traced in runs:
            try:
                result = run_one(name, args.seed, args.seconds, traced,
                                 args.quick, args.out,
                                 args.inject_wrong_answer)
            except WorkloadCrashed as exc:
                # The crash is this workload's failure, not the run's.
                print(f"-- {exc}", file=sys.stderr)
                entry["attempted"] += 1
                entry["failed"] += 1
                entry["errors"]["Crashed"] = \
                    entry["errors"].get("Crashed", 0) + 1
                continue
            entry[section] = with_units(
                result["metrics"], declared(spec, section), fill=False)
            entry["inputs"] = result["inputs"]
            entry.setdefault("speed_factor", {})[section] = \
                result["speed_factor"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for kind, count in result["errors"].items():
                entry["errors"][kind] = entry["errors"].get(kind, 0) + count
            if traced:
                entry["trace_file"] = f"trace-{name}.jsonl"
            print_metrics(name, entry[section], result)
        entry["failed_share"] = entry["failed"] / max(entry["attempted"], 1)
    record["claim"] = None
    path = args.out / f"record-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "record": str(path),
        "failed_share": {name: entry["failed_share"]
                         for name, entry in record["workloads"].items()},
        "claim": None}))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: one workload, one run")
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="suite mode: also run the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the measured time, single-block "
                             "probes; the record is flagged and refused "
                             "as a baseline")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.quick:
        args.seconds /= 10
    add_src_to_path()
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"refusing to measure {repro.__file__}: not this checkout",
              file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return contract_run(args, spec)
        return suite_run(args, spec)
    except WorkloadCrashed as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
