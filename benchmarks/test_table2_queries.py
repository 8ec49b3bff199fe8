"""Table 2 reproduction: query categories vs measured selectivity.

For every dataset the six queries must land in their selectivity bands
in the right order (h < m < l, with h genuinely selective); the
benchmark times the selectivity measurement (a full navigational
evaluation) per query.
"""

import pytest

from repro.datagen import DATASETS, measure_selectivity

from conftest import dataset

CASES = [(name, query.qid) for name, spec in DATASETS.items()
         for query in spec.queries]


@pytest.mark.parametrize("name,qid", CASES)
def test_query_selectivity(benchmark, name, qid):
    prepared = dataset(name)
    query = prepared.spec.query(qid)
    selectivity = benchmark(measure_selectivity, prepared.doc, query.text)
    benchmark.extra_info["category"] = query.category or "-"
    benchmark.extra_info["selectivity"] = f"{selectivity * 100:.2f}%"

    if query.selectivity_class == "h":
        assert selectivity < 0.02
    elif query.selectivity_class == "m":
        assert 0.02 < selectivity < 0.18
    elif query.selectivity_class == "l":
        assert selectivity > 0.08


@pytest.mark.parametrize("name", [n for n in DATASETS if n != "d5"])
def test_band_ordering(benchmark, name):
    def check():
        prepared = dataset(name)
        sel = {q.qid: measure_selectivity(prepared.doc, q.text)
               for q in prepared.spec.queries}
        assert max(sel["Q1"], sel["Q2"]) < max(sel["Q3"], sel["Q4"])
        assert max(sel["Q3"], sel["Q4"]) < min(sel["Q5"], sel["Q6"]) * 1.5

    benchmark.pedantic(check, rounds=1, iterations=1)
