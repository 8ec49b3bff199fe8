"""Unit tests for the TwigStack holistic twig join."""

import gc

import pytest

import repro
from repro import Engine
from repro.datagen.workload import DATASETS
from repro.errors import CompileError, ExecutionError, wire_code
from repro.serve import client as client_mod
from repro.pattern import build_from_path
from repro.physical import TwigStackOperator, twig_supported
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import evaluate_xpath, parse_xpath
from repro.xquery import parse_flwor
from repro.pattern.build import build_blossom_tree


def twig_nodes(doc, path_text):
    tree = build_from_path(parse_xpath(path_text))
    operator = TwigStackOperator(tree, doc)
    return [n.nid for n in operator.matching_nodes(tree.var_vertex["#result"])]


def oracle_nodes(doc, path_text):
    return [n.nid for n in evaluate_xpath(doc, path_text)]


class TestSupport:
    def test_pure_twig_supported(self):
        assert twig_supported(build_from_path(parse_xpath("//a[//b]//c")))
        assert twig_supported(build_from_path(parse_xpath("/a/b[c]/d")))

    def test_crossing_edges_unsupported(self):
        tree = build_blossom_tree(parse_flwor(
            "for $a in //x, $b in //y where $a << $b return $a"))
        assert not twig_supported(tree)

    def test_optional_edges_unsupported(self):
        tree = build_blossom_tree(parse_flwor(
            "for $a in //x let $l := $a/y return $a"))
        assert not twig_supported(tree)

    @pytest.mark.parametrize("text", ["/", 'doc("bib.xml")'])
    def test_step_less_path_is_refused_at_compile_time(self, text):
        """No step under the pattern root: no twig root.  Refused like a
        FLWOR, with ``CompileError`` (wire ``COMPILE``) on every surface,
        never ``ExecutionError`` from the operator at run time — and the
        message names the missing step, not a non-twig cause."""
        cause = "no step under the document node"
        with repro.connect("<r><a/></r>") as db:
            with pytest.raises(CompileError, match=cause) as refused:
                db.query(text, strategy="twigstack")
            assert "crossing edges" not in str(refused.value)
            server = db.listen()
            with client_mod.connect(*server.address) as client:
                with pytest.raises(CompileError, match=cause) as refused:
                    client.query(text, strategy="twigstack")
                assert wire_code(refused.value) == "COMPILE"
                assert client.query(text).items     # auto still answers

    def test_operator_rejects_unsupported(self, small_bib):
        tree = build_blossom_tree(parse_flwor(
            "for $a in //x let $l := $a/y return $a"))
        with pytest.raises(ExecutionError):
            TwigStackOperator(tree, small_bib)


class TestAgainstOracle:
    QUERIES = [
        "//book//last",
        "//book[//last]//title",
        "//book[author][price]/title",
        "//bib//book//author//last",
        "/bib/book/author/last",
        "//book[author/last]/title",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_small_bib(self, small_bib, query):
        assert twig_nodes(small_bib, query) == oracle_nodes(small_bib, query)

    RECURSIVE_QUERIES = [
        "//section//title",
        "//section//section//title",
        "//section[//para]//title",
        "//doc//section[title]//para",
        "//section[section]//title",
    ]

    @pytest.mark.parametrize("query", RECURSIVE_QUERIES)
    def test_recursive_doc(self, recursive_doc, query):
        assert twig_nodes(recursive_doc, query) == \
            oracle_nodes(recursive_doc, query)

    def test_child_edges_post_filtered(self):
        # /a/b twigs over data where b's exist at other depths: the path
        # solutions must be filtered to parent-child pairs.
        doc = parse("<a><b/><x><b/></x></a>")
        assert twig_nodes(doc, "/a/b") == oracle_nodes(doc, "/a/b")

    def test_branching_needs_both_branches(self):
        doc = parse("<r><a><b/></a><a><c/></a><a><b/><c/></a></r>")
        assert twig_nodes(doc, "//a[b][c]") == oracle_nodes(doc, "//a[b][c]")

    def test_tail_solutions_after_stream_exhaustion(self):
        # b's all precede c's; the b stream exhausts before any c is
        # seen, but (a, c) path solutions must still be produced.
        doc = parse("<r><a><b/><b/><c/><c/></a></r>")
        assert twig_nodes(doc, "//a[b]/c") == oracle_nodes(doc, "//a[b]/c")

    def test_empty_result(self, small_bib):
        assert twig_nodes(small_bib, "//book[nothing]//title") == []

    def test_value_predicates_filter_streams(self, small_bib):
        got = twig_nodes(small_bib, '//book[@year = "2000"]//last')
        assert got == oracle_nodes(small_bib, '//book[@year = "2000"]//last')


class TestCounters:
    def test_stream_io_charged(self, small_bib):
        tree = build_from_path(parse_xpath("//book//last"))
        counters = ScanCounters()
        operator = TwigStackOperator(tree, small_bib, counters=counters)
        operator.matching_nodes(tree.var_vertex["#result"])
        # Exactly the two tag streams are read: 3 books + 3 lasts.
        assert counters.nodes_scanned == 6

    def test_stack_memory_tracked(self, recursive_doc):
        tree = build_from_path(parse_xpath("//section//title"))
        counters = ScanCounters()
        operator = TwigStackOperator(tree, recursive_doc, counters=counters)
        operator.matching_nodes(tree.var_vertex["#result"])
        assert counters.peak_buffered >= 2  # nested sections stack up


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("dataset", ["d1", "d4"])
    def test_auto_queries_leave_nothing_for_the_cycle_collector(
            self, dataset):
        # The query tree's parent links and the validity passes must not
        # form reference cycles: every operator is freed by reference
        # counting when its query returns.
        spec = DATASETS[dataset]
        engine = Engine(spec.generate(scale=0.02))
        for query in spec.queries:                # warm the plan cache
            engine.query(query.text)
        gc.collect()
        gc.disable()
        try:
            for query in spec.queries:
                engine.query(query.text)
            assert gc.collect() == 0
        finally:
            gc.enable()
