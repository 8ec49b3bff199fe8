"""Corruption fixtures for the plan invariant analyzer.

Each test takes a clean compiled artifact bundle, breaks exactly one
invariant the way a real bug would (a builder that leaks a partial
chain, a join parent left non-returning, a flipped cut flag), and
asserts that the analyzer fires the *exact* rule ID the
catalogue promises for that corruption.
"""

from __future__ import annotations

import re
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_artifacts,
    analyze_plan,
    analyze_tree,
    verify_artifacts,
    verify_plan,
    verify_tree,
)
from repro.analysis.analyzer import VERIFY_RUNS
from repro.analysis.passes import ast_pass, plan_pass
from repro.analysis.report import AnalysisReport
from repro.analysis.rules import RULES, Severity
import repro.engine.executor as executor_module
from repro.engine.compiler import compile_query
from repro.engine.optimizer import PlanChoice
from repro.engine.plancache import PlanCache
from repro.engine.prepared import CachedPlan
from repro.engine.session import Engine
from repro.errors import PlanInvariantError, UsageError
from repro.pattern.artifact import PatternArtifacts, prepare_artifacts
from repro.pattern.blossom import MODE_OPTIONAL
from repro.xmlkit.partition import partition_document
from repro.xquery.parser import parse_query

TWIG = "for $a in //book return $a"
CHAIN = "for $a in //book/title return $a"
CROSS = "for $a in //book, $b in //book where $a << $b return $a"
#: Root-anchored local chains (a #root NoK that holds navigation).
ROOT_ANCHORED = ("for $a in /bib/book return $a", "/bib/book/title",
                 "/bib/book[author]/title", "/bib/book[price = 39.95]/title",
                 "for $b in /bib/book, $l in $b//last return $l")


def artifacts_for(text: str) -> PatternArtifacts:
    compiled = compile_query(text)
    assert compiled.tree is not None, compiled.compile_error
    return prepare_artifacts(compiled.tree)


#: Each reporting entry point and the enforcement gate built on it.
GATES = {analyze_tree: verify_tree, analyze_artifacts: verify_artifacts,
         analyze_plan: verify_plan}


def gated(analyze, *args, **kwargs) -> AnalysisReport:
    """``analyze(...)``'s report, after checking that the matching
    ``verify_*`` gate reaches the same verdict over the same input:
    :class:`PlanInvariantError` carrying exactly the reported rule ids
    when an error fired, the same (warning-only or clean) report
    otherwise.  Every corruption fixture below goes through here, so
    each one pins the gate as well as the pass."""
    report = analyze(*args, **kwargs)
    verify = GATES[analyze]
    if report.errors:
        with pytest.raises(PlanInvariantError) as excinfo:
            verify(*args, **kwargs)
        assert excinfo.value.rule_ids == report.rule_ids()
    else:
        assert verify(*args, **kwargs).rule_ids() == report.rule_ids()
    return report


class TestAstRules:
    def test_ast001_unbound_variable(self):
        flwor = parse_query("for $a in //book return $b")
        report = AnalysisReport()
        ast_pass(flwor, report, external=frozenset())
        assert report.rule_ids() == ["AST001"]
        assert "$b" in report.findings[0].message
        assert gated(analyze_tree, artifacts_for(TWIG).tree,
                     flwor=flwor).rule_ids() == ["AST001"]

    def test_ast001_suppressed_by_external_declaration(self):
        flwor = parse_query("for $a in //book return $b")
        report = AnalysisReport()
        ast_pass(flwor, report, external=frozenset({"b"}))
        assert report.clean

    def test_ast002_duplicate_binding(self):
        flwor = parse_query("for $a in //book, $a in //title return $a")
        report = AnalysisReport()
        ast_pass(flwor, report)
        assert "AST002" in report.rule_ids()
        assert gated(analyze_tree, artifacts_for(TWIG).tree,
                     flwor=flwor).rule_ids() == report.rule_ids()


class TestBlossomRules:
    def test_bt001_unbound_blossom(self):
        tree = artifacts_for(TWIG).tree
        # The tree maps $a to a vertex that no longer lists it — the
        # bijection is broken (an "unbound blossom").
        tree.var_vertex["a"].variables.remove("a")
        report = gated(analyze_tree, tree)
        assert report.rule_ids() == ["BT001"]

    def test_bt001_blossom_not_returning(self):
        tree = artifacts_for(TWIG).tree
        tree.var_vertex["a"].returning = False
        report = gated(analyze_tree, tree)
        assert "BT001" in report.rule_ids()

    def test_bt002_illegal_mode_on_cut_edge(self):
        artifacts = artifacts_for(TWIG)
        edge = next(e for e in artifacts.tree.tree_edges
                    if getattr(e, "cut", False))
        edge.mode = "x"
        report = gated(analyze_artifacts, artifacts)
        assert "BT002" in report.rule_ids()

    def test_bt002_illegal_axis(self):
        tree = artifacts_for(TWIG).tree
        tree.tree_edges[0].axis = "preceding"
        report = gated(analyze_tree, tree)
        assert "BT002" in report.rule_ids()

    def test_bt003_orphan_vertex(self):
        tree = artifacts_for(TWIG).tree
        tree.new_vertex("orphan")
        report = gated(analyze_tree, tree)
        assert "BT003" in report.rule_ids()

    def test_bt003_parent_child_disagreement(self):
        tree = artifacts_for(CHAIN).tree
        # The child stops pointing back at its registered parent edge.
        tree.tree_edges[-1].child.parent_edge = None
        report = gated(analyze_tree, tree)
        assert "BT003" in report.rule_ids()

    def test_bt004_illegal_crossing_relation(self):
        tree = artifacts_for(CROSS).tree
        assert tree.crossing_edges, "fixture query must produce a crossing"
        tree.crossing_edges[0].relation = "~~"
        report = gated(analyze_tree, tree)
        assert "BT004" in report.rule_ids()

    def test_bt005_returning_not_upward_closed(self):
        tree = artifacts_for(CHAIN).tree
        title = tree.var_vertex["a"]
        book = title.parent_edge.parent
        book.returning = False
        report = gated(analyze_tree, tree)
        assert "BT005" in report.rule_ids()

    def test_bt006_inert_optional_leaf(self):
        tree = artifacts_for(TWIG).tree
        leaf = tree.new_vertex("dead")
        tree.add_edge(tree.var_vertex["a"], leaf, "child", MODE_OPTIONAL)
        report = gated(analyze_tree, tree)
        assert report.rule_ids() == ["BT006"]


class TestDecompositionRules:
    def test_nk001_local_axis_edge_cut(self):
        artifacts = artifacts_for(CHAIN)
        local = next(e for e in artifacts.tree.tree_edges
                     if e.axis == "child")
        local.cut = True
        report = gated(analyze_artifacts, artifacts)
        assert "NK001" in report.rule_ids()

    def test_nk001_global_axis_edge_kept(self):
        artifacts = artifacts_for(TWIG)
        cut = next(e for e in artifacts.tree.tree_edges
                   if e.axis == "descendant")
        cut.cut = False
        report = gated(analyze_artifacts, artifacts)
        assert "NK001" in report.rule_ids()

    def test_nk002_vertex_mapped_to_wrong_nok(self):
        artifacts = artifacts_for(CHAIN)
        title = artifacts.tree.var_vertex["a"]
        artifacts.decomposition.nok_of_vertex[title.vid] = 99
        report = gated(analyze_artifacts, artifacts)
        assert "NK002" in report.rule_ids()

    def test_nk003_inter_edge_wrong_source_nok(self):
        artifacts = artifacts_for(TWIG)
        artifacts.decomposition.inter_edges[0].nok_from = 7
        report = gated(analyze_artifacts, artifacts)
        assert "NK003" in report.rule_ids()


class TestPlanRules:
    def test_pl001_join_parent_not_returning(self):
        # The match phase keeps only returning vertices' matches, so a
        # non-returning join parent leaves left_projection nothing.
        compiled = compile_query(TWIG)
        artifacts = prepare_artifacts(compiled.tree)
        inter = artifacts.decomposition.inter_edges[0]
        inter.parent.returning = False
        report = AnalysisReport()
        plan_pass(artifacts.decomposition, report)
        assert report.rule_ids() == ["PL001"]
        plan = CachedPlan(compiled, PlanChoice("pipelined", "test"),
                          artifacts, "pipelined")
        with pytest.raises(PlanInvariantError) as excinfo:
            verify_plan(plan, tree_verified=True)
        assert excinfo.value.rule_ids == ["PL001"]
        assert "PL001" in gated(analyze_artifacts, artifacts).rule_ids()

    def test_artifacts_read_their_tree_through_the_decomposition(self):
        # The decomposition is the one field, so a tree cannot be paired
        # with another compile's decomposition (the staleness DW002
        # guarded).
        artifacts = artifacts_for(TWIG)
        assert [f.name for f in fields(PatternArtifacts)] == ["decomposition"]
        assert artifacts.tree is artifacts.decomposition.tree

    def test_pl002_twigstack_on_non_twig(self):
        artifacts = artifacts_for(CROSS)
        report = gated(analyze_artifacts, artifacts, strategy="twigstack")
        assert "PL002" in report.rule_ids()

    def test_pl002_unknown_strategy(self):
        artifacts = artifacts_for(TWIG)
        report = gated(analyze_artifacts, artifacts, strategy="warp")
        assert report.rule_ids() == ["PL002"]

    def test_pl002_pattern_strategy_without_artifacts(self):
        compiled = compile_query(TWIG)
        plan = CachedPlan(compiled, PlanChoice("pipelined", "test"),
                          None, "pipelined")
        report = gated(analyze_plan, plan)
        assert "PL002" in report.rule_ids()

    def test_pl003_pipelined_on_recursive_document_warns(self):
        artifacts = artifacts_for(TWIG)
        report = gated(analyze_artifacts, artifacts, strategy="pipelined",
                       recursive_document=True)
        assert report.rule_ids() == ["PL003"]
        assert report.ok and not report.clean   # warnings never block

    def test_pl003_silent_on_non_recursive_document(self):
        artifacts = artifacts_for(TWIG)
        report = gated(analyze_artifacts, artifacts, strategy="pipelined",
                       recursive_document=False)
        assert report.clean

    def test_pl003_pipelined_under_a_wildcard_parent_warns(self):
        # ``*`` nests on any document with an element below an element:
        # over the flat <r><a><b/><c><b/></c></a><d><b/></d></r> the
        # merge would refuse its left input after the scan.
        artifacts = artifacts_for("//*//b")
        report = gated(analyze_artifacts, artifacts, strategy="pipelined",
                       recursive_document=False)
        assert report.rule_ids() == ["PL003"]
        assert report.findings[0].location == "inter:V1->V2"
        assert gated(analyze_artifacts, artifacts, strategy="stack",
                     recursive_document=False).clean

    def test_parallel_on_root_anchored_chains_analyzes_clean(self):
        # The retired PL004 refused these: each keeps a local chain in
        # its #root NoK.  The partitioned scan matches that NoK once, in
        # the partition at slot 0, so the analysis reports nothing.
        for text in ROOT_ANCHORED:
            report = gated(analyze_artifacts, artifacts_for(text),
                           strategy="parallel", recursive_document=False)
            assert report.clean, text
            assert report.ok, text

    def test_parallel_on_root_anchored_chains_verifies_and_answers(
            self, monkeypatch, small_bib):
        # The verify gate lets the same plans through, and they answer
        # like the serial ones, cut into partitions of any size.
        monkeypatch.setattr(executor_module, "partition_document",
                            partial(partition_document, min_nodes=1))
        engine = Engine(small_bib)
        for text in ROOT_ANCHORED:
            report = verify_artifacts(artifacts_for(text), strategy="parallel",
                                      recursive_document=False)
            assert report.clean, text
            naive = engine.query(text, strategy="naive").serialize()
            assert naive, text
            assert engine.query(text, strategy="pipelined").serialize() \
                == naive, text
            for executor in ("threads:2", "processes:2"):
                result = engine.query(text, strategy="parallel",
                                      executor=executor)
                assert "partition-parallel scan over 2" in result.plan
                assert result.serialize() == naive, (text, executor)

    def test_pl004_silent_on_partition_safe_plan(self):
        # //book decomposes into a trivial #root anchor plus a scannable
        # book NoK — the coordinator matches the anchor once; clean.
        artifacts = artifacts_for(TWIG)
        report = gated(analyze_artifacts, artifacts, strategy="parallel",
                       recursive_document=False)
        assert report.clean


class TestEnforcementGates:
    def test_verify_artifacts_raises_with_rule_ids(self):
        artifacts = artifacts_for(TWIG)
        edge = next(e for e in artifacts.tree.tree_edges
                    if getattr(e, "cut", False))
        edge.mode = "x"
        with pytest.raises(PlanInvariantError) as excinfo:
            verify_artifacts(artifacts)
        assert "BT002" in excinfo.value.rule_ids
        assert "BT002" in str(excinfo.value)

    def test_verify_tree_accepts_clean_tree(self):
        tree = artifacts_for(TWIG).tree
        report = verify_tree(tree)
        assert report.clean

    def test_verify_counts_outcomes(self):
        before = VERIFY_RUNS.value(outcome="error")
        artifacts = artifacts_for(TWIG)
        artifacts.tree.new_vertex("orphan")
        with pytest.raises(PlanInvariantError):
            verify_artifacts(artifacts)
        assert VERIFY_RUNS.value(outcome="error") == before + 1

    def test_warnings_do_not_raise(self):
        artifacts = artifacts_for(TWIG)
        report = verify_artifacts(artifacts, strategy="pipelined",
                                  recursive_document=True)
        assert report.rule_ids() == ["PL003"]

    def test_plan_cache_refuses_unverified_plans(self):
        compiled = compile_query(TWIG)
        artifacts = prepare_artifacts(compiled.tree)
        plan = CachedPlan(compiled, PlanChoice("pipelined", "test"),
                          artifacts, "pipelined")
        cache = PlanCache(capacity=4)
        with pytest.raises(UsageError, match="invariant verification"):
            cache.put("k", plan)
        plan.verified = True
        cache.put("k", plan)
        assert cache.get("k") is plan


class TestCatalogue:
    def test_every_rule_has_stage_severity_and_remediation(self):
        stages = {"ast", "blossom", "decomposition", "plan", "query"}
        for rule in RULES.values():
            assert rule.stage in stages
            assert isinstance(rule.severity, Severity)
            assert rule.title and rule.description and rule.remediation

    def test_rule_ids_are_stable(self):
        # Published IDs must never change meaning; a retired one (SV001,
        # with the snapshot-stamped plans it guarded; DW001 / DW002, with
        # the Dewey assignment they checked; PL004, with the partitioned
        # plans it refused) is never reused.
        assert set(RULES) == {
            "AST001", "AST002",
            "BT001", "BT002", "BT003", "BT004", "BT005", "BT006",
            "NK001", "NK002", "NK003",
            "PL001", "PL002", "PL003",
            "QL001", "QL002", "QL003", "QL004", "QL005", "QL006",
        }

    def test_readme_rule_table_matches_catalogue(self):
        # README's rule table is edited by hand; its (id, severity, stage)
        # rows must stay the catalogue's, in catalogue order.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = [tuple(cell.strip() for cell in line.split("|")[1:4])
                for line in readme.read_text(encoding="utf-8").splitlines()
                if re.match(r"\| [A-Z]+\d{3} \|", line)]
        assert rows == [(rule.rule_id, rule.severity.value, rule.stage)
                        for rule in RULES.values()]

    def test_warning_rules(self):
        warnings = [r.rule_id for r in RULES.values()
                    if r.severity is Severity.WARNING]
        assert warnings == ["PL003", "QL005"]

    def test_finding_format_is_lint_style(self):
        tree = artifacts_for(TWIG).tree
        tree.new_vertex("orphan")
        report = gated(analyze_tree, tree, source="q.xq")
        line = report.findings[0].format("q.xq")
        assert line.startswith("q.xq:BT003: error: [blossom:")
        assert "hint:" in line
