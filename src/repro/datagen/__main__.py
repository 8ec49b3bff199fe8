"""Command-line corpus generation: ``python -m repro.datagen``.

Writes the benchmark datasets to disk as XML files, so they can be
inspected, diffed across seeds, or fed to other tools::

    python -m repro.datagen --out corpora --scale 0.5
    python -m repro.datagen --out corpora --datasets d1,d4 --seed 7

Files are named ``<dataset>.xml`` and a ``MANIFEST.txt`` records the
generation parameters and the Table-1 statistics of each file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datagen.workload import DATASETS
from repro.xmlkit.writer import serialize
from repro.xmlkit.stats import compute_stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.datagen")
    parser.add_argument("--out", type=Path, default=Path("corpora"),
                        help="output directory (default: ./corpora)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="dataset scale factor (default 0.5)")
    parser.add_argument("--datasets", type=str, default="",
                        help="comma-separated subset, e.g. d1,d4 (default all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the per-dataset default seed")
    args = parser.parse_args(argv)

    names = [d for d in args.datasets.split(",") if d] or list(DATASETS)
    args.out.mkdir(parents=True, exist_ok=True)

    manifest: list[str] = [f"scale={args.scale} seed={args.seed or 'default'}"]
    for name in names:
        spec = DATASETS.get(name)
        if spec is None:
            print(f"unknown dataset {name!r}", file=sys.stderr)
            return 2
        kwargs = {"scale": args.scale}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        doc = spec.generator(**kwargs)
        text = serialize(doc.root)
        path = args.out / f"{name}.xml"
        path.write_text(text, encoding="utf-8")
        stats = compute_stats(doc, with_size=False)
        line = (f"{name}: {len(text):,} bytes, {stats.n_elements} elements, "
                f"max depth {stats.max_depth}, "
                f"{'recursive' if stats.recursive else 'non-recursive'}")
        manifest.append(line)
        print(f"wrote {path}  ({line})")

    (args.out / "MANIFEST.txt").write_text("\n".join(manifest) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
