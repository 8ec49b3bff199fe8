"""Benchmark harness: regenerates the paper's experimental tables.

The paper's evaluation (Section 5) compares, per dataset and query
category, the physical strategies:

* **XH** — X-Hive/DB 6.0, simulated by the navigational engine
  (:mod:`repro.baseline.xhive`);
* **TS** — TwigStack over tag-name indexes;
* **NL** — the (bounded) nested-loop join;
* **PL** — the pipelined merge join.

Exactly as in Table 3, recursive datasets (d1, d4) run XH/TS/NL (the
pipelined join is order-unsound there, Example 5) and non-recursive
datasets (d2, d3, d5) run XH/TS/PL (naive NL lost on every
non-recursive query and was dropped by the authors).

Runs that exceed the per-run work budget report ``DNF``, mirroring the
paper's 15-minute timeouts with a deterministic, machine-independent
criterion (nodes scanned relative to document size).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import DNFError
from repro.xmlkit.stats import compute_stats
from repro.xmlkit.storage import ScanCounters
from repro.engine.session import Engine
from repro.strategy import STRATEGIES
from repro.datagen.workload import DATASETS, DatasetSpec, measure_selectivity

__all__ = [
    "SYSTEMS",
    "CellResult",
    "Table3Row",
    "prepare_dataset",
    "run_cell",
    "systems_for",
    "table1_rows",
    "table2_rows",
    "table3_rows",
]

#: system label -> engine strategy (the rows that carry a Table-3 label)
SYSTEMS = {row.label: row.name for row in STRATEGIES.values() if row.label}

#: Work budget per run, as a multiple of the document's node count —
#: i.e. "how many document scans' worth of work before we call it DNF".
#: The paper's 15-minute timeout corresponds to a low-hundreds scan
#: budget at its scale; 120 reproduces which cells DNF (the nested loop
#: re-scans the input once per outer match and blows through it, while
#: XH's worst navigational query stays under ~10 scans).
DEFAULT_BUDGET_FACTOR = 120


@dataclass
class CellResult:
    """One (dataset, query, system) measurement."""

    system: str
    seconds: float | None          # None => DNF
    counters: dict[str, int] = field(default_factory=dict)
    n_results: int = 0

    @property
    def dnf(self) -> bool:
        return self.seconds is None

    def display(self) -> str:
        if self.dnf:
            return "DNF"
        return f"{self.seconds:.3f}"


@dataclass
class Table3Row:
    dataset: str
    system: str
    cells: dict[str, CellResult]      # qid -> cell


class PreparedDataset:
    """A generated document with its engine, reused across the cells
    of one table row."""

    def __init__(self, spec: DatasetSpec, scale: float) -> None:
        self.spec = spec
        self.doc = spec.generate(scale=scale)
        self.engine = Engine(self.doc)
        # Build the tag index up front: the paper gives TwigStack its
        # indexes for free and measures join time only.
        self.engine.index.build()


_CACHE: dict[tuple[str, float], PreparedDataset] = {}


def prepare_dataset(name: str, scale: float) -> PreparedDataset:
    """Generate (and memoize) a dataset at a given scale."""
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = PreparedDataset(DATASETS[name], scale)
    return _CACHE[key]


def systems_for(name: str) -> list[str]:
    """The paper's system selection per dataset (Table 3)."""
    if DATASETS[name].recursive:
        return ["XH", "TS", "NL"]
    return ["XH", "TS", "PL"]


def run_cell(prepared: PreparedDataset, query: str, system: str,
             budget_factor: int = DEFAULT_BUDGET_FACTOR,
             repeat: int = 1) -> CellResult:
    """Run one query under one system, with DNF budgeting.

    ``repeat`` > 1 averages wall-clock time over several executions
    (the paper averages three); counters come from the last run.
    """
    strategy = SYSTEMS[system]
    budget = budget_factor * len(prepared.doc.nodes)
    counters = ScanCounters()
    total = 0.0
    n_results = 0
    for _ in range(repeat):
        counters = ScanCounters()
        started = time.perf_counter()
        try:
            result = prepared.engine.query(query, strategy=strategy,
                                           counters=counters,
                                           work_budget=budget)
        except DNFError:
            return CellResult(system, None, counters.snapshot())
        total += time.perf_counter() - started
        n_results = len(result)
    return CellResult(system, total / repeat, counters.snapshot(), n_results)


# ----------------------------------------------------------------------
# Tables.
# ----------------------------------------------------------------------

def table1_rows(scale: float = 1.0) -> list[dict[str, object]]:
    """Reproduce Table 1: per-dataset statistics (at our scale)."""
    rows = []
    for name, spec in DATASETS.items():
        doc = prepare_dataset(name, scale).doc
        stats = compute_stats(doc, with_size=True)
        row = stats.table1_row(name)
        row["origin"] = spec.origin
        rows.append(row)
    return rows


def table2_rows(scale: float = 1.0) -> list[dict[str, object]]:
    """Reproduce Table 2: per-query measured selectivity vs category."""
    rows = []
    for name, spec in DATASETS.items():
        doc = prepare_dataset(name, scale).doc
        for query in spec.queries:
            selectivity = measure_selectivity(doc, query.text)
            rows.append({
                "data set": name,
                "query": query.qid,
                "category": query.category or "-",
                "path": query.text,
                "selectivity": f"{selectivity * 100:.2f}%",
            })
    return rows


def table3_rows(scale: float = 1.0, repeat: int = 1,
                budget_factor: int = DEFAULT_BUDGET_FACTOR,
                datasets: list[str] | None = None) -> list[Table3Row]:
    """Reproduce Table 3: running time per dataset × system × query."""
    rows: list[Table3Row] = []
    for name in (datasets or list(DATASETS)):
        prepared = prepare_dataset(name, scale)
        for system in systems_for(name):
            cells: dict[str, CellResult] = {}
            for query in DATASETS[name].queries:
                cells[query.qid] = run_cell(prepared, query.text, system,
                                            budget_factor, repeat)
            rows.append(Table3Row(name, system, cells))
    return rows
