"""Compare two benchmark records (or two sets of records).

``compare.py BASE NEW`` — each side is a record file or a directory
holding ``record-*.json`` files (at any depth).  For every workload and end-to-end metric it
prints base, new, ratio and a verdict from the metric's direction and
bound in BENCHMARK.json:

* ``regressed``  — new is worse than base by more than the bound;
* ``unresolved`` — a side's own quartile spread exceeds the bound, so
  the runs cannot tell (needs at least two records on that side);
* ``ok``         — otherwise.

``failed_share`` is compared too: any increase is a regression.  Exit
code 1 on any ``regressed``; 2 when the sides are not comparable
(schema version, seeds, input digests, or a ``--quick`` baseline).

``compare.py --median OUT RECORD...`` writes the per-metric median of
several records of one seed as one record (how ``baseline.json`` is
made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import SCHEMA_VERSION, load_spec


class NotComparable(Exception):
    pass


def load_side(path: Path) -> list[dict]:
    files = sorted(path.rglob("record-*.json")) if path.is_dir() else [path]
    if not files:
        raise NotComparable(f"{path}: no record-*.json files")
    records = [json.loads(file.read_text(encoding="utf-8"))
               for file in files]
    for file, record in zip(files, records):
        if record.get("schema_version") != SCHEMA_VERSION:
            raise NotComparable(
                f"{file}: schema version {record.get('schema_version')!r}, "
                f"this tool reads {SCHEMA_VERSION}")
    return records


def identity(records: list[dict]) -> set[str]:
    """What must match between sides: the seeds run and the digests of
    the inputs they produced (however many records each side holds)."""
    return {json.dumps([record["seed"], sorted(
        (name, sorted(entry.get("inputs", {}).items()))
        for name, entry in record["workloads"].items())])
        for record in records}


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    if metric == "failed_share":
        return [record["workloads"][workload]["failed_share"]
                for record in records if workload in record["workloads"]]
    return [record["workloads"][workload]["end_to_end"][metric]["value"]
            for record in records
            if metric in record["workloads"].get(workload, {}).get(
                "end_to_end", {})]


def spread(samples: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    distance = quartiles[2] - quartiles[0]
    median = statistics.median(samples)
    if median == 0:         # failed_share on clean runs
        return 0.0 if distance == 0 else float("inf")
    return distance / median


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[float, float, str]:
    base_median, new_median = statistics.median(base), statistics.median(new)
    if base_median == 0:
        worse_by = float("inf") if new_median > 0 else 0.0
    elif better == "lower":
        worse_by = (new_median - base_median) / base_median
    else:
        worse_by = (base_median - new_median) / base_median
    if max(spread(base), spread(new)) > bound:
        return base_median, new_median, "unresolved"
    return base_median, new_median, ("regressed" if worse_by > bound
                                     else "ok")


def compare(base: list[dict], new: list[dict], spec: dict) -> int:
    if any(record.get("quick") for record in base):
        raise NotComparable("the baseline is a --quick record")
    if identity(base) != identity(new):
        raise NotComparable("seeds or input digests differ between sides")
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_share", "lower", 0.0))
    regressed = 0
    print(f"{'workload':18s} {'metric':16s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for name, better, bound in metrics:
            base_values = values(base, workload, name)
            new_values = values(new, workload, name)
            if not base_values or not new_values:
                continue
            b, n, word = verdict(base_values, new_values, better, bound)
            ratio = n / b if b else float("nan")
            print(f"{workload:18s} {name:16s} {b:12.4f} {n:12.4f} "
                  f"{ratio:7.3f}  {word}")
            regressed += word == "regressed"
    return 1 if regressed else 0


def median_record(records: list[dict]) -> dict:
    """One record whose every metric is the median over ``records``."""
    if len(identity(records)) != 1:
        raise NotComparable("records differ in seed or input digests")
    merged = json.loads(json.dumps(records[0]))
    merged["runs"] = len(records)
    merged["machine"] = [record["machine"] for record in records]
    for name, entry in merged["workloads"].items():
        others = [record["workloads"][name] for record in records]
        for key in ("attempted", "failed"):
            entry[key] = sum(other[key] for other in others)
        entry["failed_share"] = entry["failed"] / max(entry["attempted"], 1)
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).items():
                cell["value"] = statistics.median(
                    other[section][metric]["value"] for other in others)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--median", type=Path, metavar="OUT", default=None)
    parser.add_argument("paths", type=Path, nargs="+")
    args = parser.parse_args(argv)
    try:
        if args.median is not None:
            records = [r for path in args.paths for r in load_side(path)]
            args.median.write_text(
                json.dumps(median_record(records), indent=1) + "\n",
                encoding="utf-8")
            return 0
        if len(args.paths) != 2:
            parser.error("compare takes exactly two sides: BASE NEW")
        return compare(load_side(args.paths[0]), load_side(args.paths[1]),
                       load_spec())
    except NotComparable as exc:
        print(f"not comparable: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
