"""The analyzer CLI and the built-in corpora.

The examples corpus and the datagen workloads are the analyzer's
regression anchor: every query in them must compile to artifacts that
pass every rule with zero findings.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.__main__ import analyze_query_text, main
from repro.analysis.corpus import EXAMPLE_QUERIES


class TestCorpora:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_QUERIES))
    def test_example_analyzes_clean(self, name):
        report = analyze_query_text(EXAMPLE_QUERIES[name], source=name)
        assert report is not None, "example left the pattern subset"
        assert report.clean, report.format()

    def test_examples_cover_every_pass(self):
        passes = set()
        for name, text in EXAMPLE_QUERIES.items():
            report = analyze_query_text(text, source=name)
            passes.update(report.passes_run)
        assert passes == {"ast", "blossom", "decomposition", "plan"}

    def test_workloads_analyze_clean(self):
        from repro.datagen.workload import DATASETS

        for dataset_name, dataset in DATASETS.items():
            for spec in dataset.queries:
                report = analyze_query_text(
                    spec.text, source=f"{dataset_name}:{spec.qid}")
                if report is not None:
                    assert report.clean, report.format()

    def test_navigational_fallback_returns_none(self):
        # Two FLWORs in one constructor are evaluated directly; nothing
        # to verify.
        text = ("<x>{ for $a in //book return $a }"
                "{ for $b in //title return $b }</x>")
        assert analyze_query_text(text) is None


class TestCli:
    def test_rules_flag_prints_catalogue(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        assert "AST001" in out and "PL003" in out

    def test_examples_exit_zero(self, capsys):
        assert main(["--examples", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_query_file_ok(self, tmp_path, capsys):
        query = tmp_path / "q.xq"
        query.write_text("for $a in //book return $a/title")
        assert main([str(query)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.xq"
        bad.write_text("for $a in ((( return")
        assert main([str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.xq")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["--examples", "--workloads", "--quiet",
                     "--json", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["tool"] == "repro.analysis"
        assert payload["errors"] == 0
        assert payload["queries_analyzed"] == len(payload["reports"])
        for report in payload["reports"]:
            assert report["ok"]
