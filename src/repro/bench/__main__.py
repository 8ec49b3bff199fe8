"""Command-line entry point: ``python -m repro.bench <table>``.

Regenerates the paper's tables from the command line::

    python -m repro.bench table1 [--scale S]
    python -m repro.bench table2 [--scale S]
    python -m repro.bench table3 [--scale S] [--repeat N] [--datasets d1,d2]

``tests/test_bench_harness.py`` asserts the tables' shape (who wins,
where the DNFs fall) on the same harness at a small scale.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import table1_rows, table2_rows, table3_rows
from repro.bench.reporting import format_dict_table, format_table3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("table", choices=["table1", "table2", "table3"])
    parser.add_argument("--scale", type=float, default=0.5,
                        help="dataset scale factor (default 0.5)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="table3: wall-clock repetitions per cell")
    parser.add_argument("--datasets", type=str, default="",
                        help="table3: comma-separated subset, e.g. d1,d4")
    parser.add_argument("--counters", action="store_true",
                        help="table3: include total nodes-scanned per row")
    args = parser.parse_args(argv)

    if args.table == "table1":
        print(format_dict_table(table1_rows(args.scale)))
    elif args.table == "table2":
        print(format_dict_table(table2_rows(args.scale)))
    else:
        names = [d for d in args.datasets.split(",") if d] or None
        rows = table3_rows(args.scale, repeat=args.repeat, datasets=names)
        print(format_table3(rows, show_counters=args.counters))
    return 0


if __name__ == "__main__":
    sys.exit(main())
