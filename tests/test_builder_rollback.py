"""Builder rollback: abandoned speculative chains leave no trace.

Regression tests for the BT006 class of latent violations the analyzer
surfaced: ``_where_endpoint`` and the where-conjunct pushdown used to
catch ``CompileError`` *after* partially extending the tree, leaving inert
optional leaves (and, worse, mandatory pruning stubs) behind.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_tree
from repro.engine import Engine, compile_query
from repro.pattern.blossom import MODE_OPTIONAL
from repro.pattern.build import build_blossom_tree
from repro.xquery.parser import parse_query

#: where-clauses whose endpoint chains fail mid-build (``parent``/
#: ``ancestor`` axes are outside the pattern subset, so translation
#: raises after the first step already added a vertex).
LEAKY_QUERIES = [
    "for $a in //book, $b in //book "
    "where $a/title/parent::x << $b return $a",
    "for $a in //book, $b in //book "
    "where deep-equal($a/author, $b/ancestor::x) return $a",
    'for $a in //book where $a/title/parent::x = "y" return $a',
    # Left endpoint builds fully, right endpoint fails: the pair must
    # be abandoned atomically.
    "for $a in //book, $b in //book "
    "where $a/title << $b/title/parent::x return $a",
]


class TestRollback:
    @pytest.mark.parametrize("query", LEAKY_QUERIES)
    def test_abandoned_chain_leaves_no_trace(self, query):
        compiled = compile_query(query)
        assert compiled.tree is not None, compiled.compile_error
        report = analyze_tree(compiled.tree)
        assert report.clean, report.format()
        dispositions = [c.disposition for c in compiled.tree.where]
        assert dispositions == ["residual"], (
            "a conjunct whose path has a step outside the pattern subset "
            "is rolled back atomically (BT006) and only checked per "
            f"tuple, got {dispositions}")

    @pytest.mark.parametrize("query", LEAKY_QUERIES)
    def test_results_match_naive(self, query, small_bib):
        engine = Engine(small_bib)
        reference = engine.query(query, strategy="naive").serialize()
        assert engine.query(query, strategy="auto").serialize() == reference

    def test_checkpoint_restores_value_predicates(self):
        # A `self` step can attach a predicate to a pre-checkpoint
        # vertex before a later step fails; rollback must drop it.
        flwor = parse_query(
            'for $a in //book where $a/.[price]/parent::x = "y" return $a')
        tree = build_blossom_tree(flwor)
        book = tree.var_vertex["a"]
        assert not book.value_predicates
        assert not book.child_edges  # the [price] existential rolled back

    def test_checkpoint_roundtrip_is_identity(self):
        flwor = parse_query("for $a in //book return $a")
        tree = build_blossom_tree(flwor)
        mark = tree.checkpoint()
        extra = tree.new_vertex("spec")
        tree.add_edge(tree.var_vertex["a"], extra, "child", MODE_OPTIONAL)
        tree.rollback(mark)
        assert len(tree.vertices) == mark.n_vertices
        assert len(tree.tree_edges) == mark.n_tree_edges
        assert analyze_tree(tree).clean
