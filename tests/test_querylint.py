"""Query-vs-data lint (QL rules) and static-empty serving."""

import json

import pytest

from repro.analysis.query import analyze_query
from repro.engine import Engine, compile_query
from repro.engine.database import Database
from repro.obs.metrics import REGISTRY
from repro.serve import Catalog, QueryService
from repro.xmlkit.parser import parse
from repro.xmlkit.summary import build_summary
from tests.conftest import SMALL_BIB

_FINDINGS = REGISTRY.counter("repro_querylint_findings_total", "")
_STATIC_EMPTY = REGISTRY.counter("repro_querylint_static_empty_total", "")


def lint(text, doc_text=SMALL_BIB):
    """Compile + lint one query against a document's summary."""
    compiled = compile_query(text)
    assert compiled.tree is not None, "query left the pattern subset"
    return analyze_query(
        compiled.tree, build_summary(parse(doc_text)),
        flwor=None if compiled.is_bare_path else compiled.flwor,
        source="<test>")


def fires(rule, text):
    """Lint ``text``; ``rule`` is among its findings."""
    result = lint(text)
    assert rule in result.report.rule_ids()
    return result


class TestRuleMatrix:
    """Which QL rule fires, and whether it licenses the static-empty
    plan."""

    def test_ql001_absent_label_is_static_empty(self):
        reason = fires("QL001", "//zzz/title").static_empty
        assert "zzz" in reason and reason.endswith("(QL001)")

    def test_ql002_wrong_child_relationship(self):
        assert fires("QL002", "//title/book").static_empty

    def test_ql002_wrong_descendant_relationship(self):
        assert fires("QL002", "//author//price").static_empty

    def test_ql003_contradictory_equalities(self):
        assert fires("QL003", '//book[@year = "1994" and @year = "2000"]'
                              '/title').static_empty

    def test_ql003_empty_numeric_range(self):
        assert fires("QL003", "//book[@year > 2005 and @year < 2000]"
                              "/title").static_empty

    def test_ql004_constant_false_where(self):
        assert fires("QL004", "for $b in //book where 1 = 2 "
                              "return $b/title").static_empty

    def test_ql004_where_over_provably_empty_path(self):
        assert fires("QL004", "for $b in //book where $b/zzz "
                              "return $b/title").static_empty

    def test_ql005_constant_true_where_is_warning_only(self):
        result = lint("for $b in //book where 1 = 1 return $b/title")
        assert result.report.rule_ids() == ["QL005"]
        assert not result.static_empty
        assert not result.report.errors and result.report.warnings

    def test_ql005_negated_empty_path_is_not_empty(self):
        # not(empty) is constant TRUE: filters nothing.
        assert not fires("QL005", "for $b in //book where not($b/zzz) "
                                  "return $b/title").static_empty

    def test_ql006_attribute_never_present(self):
        assert fires("QL006", '//book[@isbn = "1"]/title').static_empty

    def test_return_path_provably_empty(self):
        assert fires("QL001", "for $b in //book return $b/zzz").static_empty

    def test_clean_query_has_no_findings(self):
        result = lint('//book[@year = "1994"]/title')
        assert result.report.clean
        assert result.static_empty == ""

    def test_optional_branch_finding_is_reported_not_rewritten(self):
        # The branch under ``let`` may be referenced from outside it (a
        # following-sibling anchor), so the plan keeps it.
        assert fires("QL001", "for $b in //book let $z := $b/zzz/"
                              "following-sibling::price return $z"
                     ).static_empty == ""

    def test_counters_move(self):
        before = _FINDINGS.value(rule="QL001")
        lint("//zzz/title")
        assert _FINDINGS.value(rule="QL001") > before


class TestEngineIntegration:
    def test_static_empty_plan_short_circuits(self, small_bib):
        engine = Engine(small_bib)
        result = engine.query("//zzz/title")
        assert len(result) == 0
        assert "static-empty" in result.plan
        assert "QL001" in result.plan

    def test_static_empty_counter_moves(self, small_bib):
        engine = Engine(small_bib)
        before = _STATIC_EMPTY.value()
        engine.query("//zzz")
        assert _STATIC_EMPTY.value() == before + 1

    def test_static_empty_flwor_with_constructor(self, small_bib):
        engine = Engine(small_bib)
        result = engine.query(
            "<out>{ for $b in //book where 1 = 2 return $b/title }</out>")
        assert result.serialize() == "<out/>"
        assert "static-empty" in result.plan

    def test_static_empty_plan_is_cached(self, small_bib):
        engine = Engine(small_bib)
        first = engine.query("//zzz", trace=True)
        again = engine.query("//zzz", trace=True)
        assert "static-empty" in first.plan and again.plan == first.plan
        assert [r.root.attrs["plan-cache"] for r in (first.trace, again.trace)] \
            == ["miss", "hit"]
        assert "static-empty" not in engine.query("//book/title").plan

    @pytest.mark.parametrize("cls", [Engine, Database, Catalog, QueryService])
    def test_the_lint_switch_is_gone(self, cls):
        with pytest.raises(TypeError, match="analyze_queries"):
            cls(SMALL_BIB, analyze_queries=False)

    def test_fingerprint_is_the_summary_digest_lint_on_or_off(self, small_bib):
        # The lint has no switch, and plans are keyed by shape, not by
        # version: the document part of the key is the digest alone.
        assert Engine(small_bib).stats_fingerprint() == (
            small_bib.derived.summary.fingerprint(),)

    def test_baseline_strategies_bypass_lint(self, small_bib):
        result = Engine(small_bib).query("//zzz", strategy="naive")
        assert result.serialize() == ""
        assert "static-empty" not in result.plan

    def test_explain_reports_lint_and_rewrite(self, small_bib):
        engine = Engine(small_bib)
        text = engine.explain("//zzz/title")
        assert "query lint:" in text
        assert "QL001" in text
        assert "rewrite:" in text
        assert "static-empty" in text

    def test_explain_clean_query_has_no_lint_section(self, small_bib):
        engine = Engine(small_bib)
        assert "query lint:" not in engine.explain("//book/title")


class TestServeStaticEmpty:
    def test_repeat_is_a_result_cache_hit(self):
        # No inline probe: a static-empty text takes the queue like any
        # other, scans nothing, and its repeat comes from the result cache.
        with QueryService(SMALL_BIB, workers=1) as service:
            first = service.query("//zzz/title")
            second = service.query("//zzz/title")
            assert first.serialize() == second.serialize() == ""
            assert "static-empty" in first.result.plan
            assert first.result.counters.nodes_scanned == 0
            assert (first.cached, second.cached) == (False, True)
            stats = service.stats()
            assert stats["counters"]["submitted"] == 2
            assert stats["counters"]["completed"] == 2
            assert stats["result_cache"]["hits"] == 1


class TestCli:
    def test_lint_examples_and_workloads_clean(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--lint", "--examples", "--workloads", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_flags_unsatisfiable_file(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        query = tmp_path / "dead.xq"
        query.write_text("//zzz/title")
        assert main(["--lint", str(query), "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "QL001" in out
        assert "statically empty" in out

    def test_lint_json_report_round_trip(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        report = tmp_path / "report.json"
        assert main(["--lint", "--examples", "--quiet",
                     "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == 1
        assert payload["mode"] == "lint"
        assert main(["--check-report", str(report)]) == 0
        capsys.readouterr()

    def test_check_report_rejects_unknown_schema(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"tool": "repro.analysis", "schema": 99, "errors": 0}))
        assert main(["--check-report", str(bad)]) == 2
        assert "schema 99" in capsys.readouterr().err

    def test_check_report_rejects_non_analysis_payload(self, tmp_path,
                                                       capsys):
        from repro.analysis.__main__ import main

        alien = tmp_path / "stats.json"
        alien.write_text(json.dumps({"schema": 1, "counters": {}}))
        assert main(["--check-report", str(alien)]) == 2
        assert "not a repro.analysis report" in capsys.readouterr().err

    def test_check_report_propagates_recorded_errors(self, tmp_path):
        from repro.analysis.__main__ import main

        report = tmp_path / "errors.json"
        report.write_text(json.dumps(
            {"tool": "repro.analysis", "schema": 1, "errors": 3}))
        assert main(["--check-report", str(report)]) == 1
