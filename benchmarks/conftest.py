"""Shared configuration for the benchmark suite.

``BENCH_SCALE`` controls dataset size (relative to the generators'
base element counts); override with ``REPRO_BENCH_SCALE=1.0`` for a
longer, higher-resolution run.  The paper's datasets are ~100x larger
than our defaults; all shape assertions are scale-invariant.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import PreparedDataset, prepare_dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


@pytest.fixture(scope="session")
def scale() -> float:
    return BENCH_SCALE


def dataset(name: str) -> PreparedDataset:
    return prepare_dataset(name, BENCH_SCALE)

