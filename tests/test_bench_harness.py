"""Tests for the Table 1-3 harness and the Table-3 shape claims.

These run at a tiny scale so the *shape* assertions (who wins, where
the DNFs fall) stay fast, and assert them on work counters rather than
wall-clock.  ``python -m repro.bench table3`` prints the timed table.
"""

import pytest

from repro.datagen import DATASETS
from repro.engine.compiler import compile_query
from repro.engine.cost import CostModel
from repro.bench import (
    format_dict_table,
    format_table3,
    prepare_dataset,
    run_cell,
    systems_for,
    table1_rows,
    table2_rows,
    table3_rows,
)

SCALE = 0.1


class TestHarnessMechanics:
    def test_systems_follow_paper_selection(self):
        assert systems_for("d1") == ["XH", "TS", "NL"]
        assert systems_for("d4") == ["XH", "TS", "NL"]
        for name in ("d2", "d3", "d5"):
            assert systems_for(name) == ["XH", "TS", "PL"]

    def test_prepared_dataset_memoized(self):
        first = prepare_dataset("d2", SCALE)
        second = prepare_dataset("d2", SCALE)
        assert first is second

    def test_run_cell_returns_timing_and_counters(self):
        prepared = prepare_dataset("d2", SCALE)
        cell = run_cell(prepared, "//address[//zip_code]", "PL")
        assert not cell.dnf
        assert cell.seconds >= 0
        assert cell.counters["nodes_scanned"] > 0
        assert cell.n_results > 0

    def test_run_cell_dnf(self):
        prepared = prepare_dataset("d1", SCALE)
        query = prepared.spec.query("Q5").text
        cell = run_cell(prepared, query, "NL", budget_factor=2)
        assert cell.dnf
        assert cell.display() == "DNF"

    def test_table1_rows(self):
        rows = table1_rows(SCALE)
        assert len(rows) == 5
        d1 = next(r for r in rows if r["data set"] == "d1")
        assert d1["recursive?"] == "Y"
        assert d1["#nodes"] > 0

    def test_table2_rows(self):
        rows = table2_rows(SCALE)
        assert len(rows) == 30
        assert all("selectivity" in row for row in rows)

    def test_formatting(self):
        text = format_dict_table(table1_rows(SCALE))
        assert "data set" in text and "d5" in text
        rows = table3_rows(SCALE, datasets=["d2"])
        rendered = format_table3(rows)
        assert "Q6" in rendered and "PL" in rendered


class TestTable3Shape:
    """The paper's qualitative results, asserted on work counters
    (machine-independent) rather than wall-clock."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {(r.dataset, r.system): r for r in table3_rows(SCALE)}

    def test_ts_beats_xh_in_io_everywhere(self, rows):
        for (dataset, system), row in rows.items():
            if system != "TS":
                continue
            xh = rows[(dataset, "XH")]
            for qid, cell in row.cells.items():
                assert cell.counters["nodes_scanned"] < \
                    xh.cells[qid].counters["nodes_scanned"], (dataset, qid)

    def test_pl_is_one_scan_on_non_recursive(self, rows):
        for dataset in ("d2", "d3", "d5"):
            prepared = prepare_dataset(dataset, SCALE)
            n_nodes = len(prepared.doc.nodes)
            row = rows[(dataset, "PL")]
            for qid, cell in row.cells.items():
                assert cell.counters["nodes_scanned"] == n_nodes, (dataset, qid)
                assert cell.counters["scans_started"] == 1, (dataset, qid)

    def test_pl_io_at_most_xh(self, rows):
        for dataset in ("d2", "d3", "d5"):
            pl = rows[(dataset, "PL")]
            xh = rows[(dataset, "XH")]
            for qid in pl.cells:
                assert pl.cells[qid].counters["nodes_scanned"] <= \
                    xh.cells[qid].counters["nodes_scanned"], (dataset, qid)

    def test_nl_dnfs_on_low_selectivity_recursive(self, rows):
        """The paper's DNF pattern: NL dies on the moderate/low
        selectivity recursive queries but finishes the most selective
        ones."""
        for dataset in ("d1", "d4"):
            row = rows[(dataset, "NL")]
            dnfs = {qid for qid, cell in row.cells.items() if cell.dnf}
            assert "Q1" not in dnfs, dataset       # most selective finishes
            assert {"Q5", "Q6"} <= dnfs, dataset   # low-selectivity dies

    def test_xh_and_ts_never_dnf(self, rows):
        for (dataset, system), row in rows.items():
            if system in ("XH", "TS"):
                assert not any(cell.dnf for cell in row.cells.values()), \
                    (dataset, system)

    def test_all_finishing_systems_agree_on_results(self, rows):
        for name, spec in DATASETS.items():
            for query in spec.queries:
                counts = {rows[(name, system)].cells[query.qid].n_results
                          for system in systems_for(name)
                          if not rows[(name, system)].cells[query.qid].dnf}
                assert len(counts) == 1, (name, query.qid)

    def test_ts_io_grows_with_result_size_pl_stays_flat(self, rows):
        """Ablation A4: TS reads more index entries on the
        low-selectivity queries, PL reads one document pass on every
        query, so TS's I/O advantage shrinks from h to l."""
        for name in ("d2", "d3"):
            ts = {qid: cell.counters["nodes_scanned"]
                  for qid, cell in rows[(name, "TS")].cells.items()}
            pl = {qid: cell.counters["nodes_scanned"]
                  for qid, cell in rows[(name, "PL")].cells.items()}
            assert len(set(pl.values())) == 1, name
            assert max(ts["Q5"], ts["Q6"]) > max(ts["Q1"], ts["Q2"]), name
            assert pl["Q1"] / ts["Q1"] > pl["Q5"] / ts["Q5"], name

    def test_cost_model_regret_is_bounded(self, rows):
        """Ablation A6: the cost model's pick always finishes and reads
        at most 12x (in the median 4x) the nodes of the best system."""
        system_of = {"xhive": "XH", "twigstack": "TS", "pipelined": "PL",
                     "stack": "PL", "bnlj": "NL", "nl": "NL"}
        regrets = []
        for name, spec in DATASETS.items():
            model = CostModel(prepare_dataset(name, SCALE).doc)
            for query in spec.queries:
                pick = model.choose(compile_query(query.text).tree)
                work = {}
                for system in systems_for(name):
                    cell = rows[(name, system)].cells[query.qid]
                    work[system] = (float("inf") if cell.dnf
                                    else cell.counters["nodes_scanned"])
                picked = work.get(system_of[pick.strategy], float("inf"))
                assert picked != float("inf"), (name, query.qid, pick.strategy)
                regrets.append(picked / max(1, min(work.values())))
        assert max(regrets) < 12.0
        assert sorted(regrets)[len(regrets) // 2] < 4.0
