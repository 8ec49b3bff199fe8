"""All-``//`` chain queries, PathStack's territory (reference [7]).

TwigStack subsumes PathStack on chains, so the chain cases run through
:class:`~repro.physical.TwigStackOperator` and the navigational oracle,
including hypothesis-generated chains over recursive documents.
"""

import pytest

from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.pattern import build_from_path
from repro.pattern.build import build_blossom_tree
from repro.physical import TwigStackOperator, twig_supported
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import evaluate_xpath, parse_xpath
from repro.xquery import parse_flwor

from tests.test_property_based import COMMON_SETTINGS, TAGS, xml_documents
from tests.test_twigstack import twig_nodes


class TestSupport:
    def test_descendant_chains_supported(self):
        assert twig_supported(build_from_path(parse_xpath("//a//b//c")))
        assert twig_supported(build_from_path(parse_xpath("//a")))

    def test_operator_rejects_non_chain(self, small_bib):
        tree = build_blossom_tree(parse_flwor(
            "for $a in //book, $b in //last where $a << $b return $b"))
        with pytest.raises(ExecutionError):
            TwigStackOperator(tree, small_bib)


class TestAgainstOracle:
    CASES = [
        ("<r><a><b><c/></b></a></r>", "//a//b//c"),
        ("<r><a><a><b/></a><b/></a></r>", "//a//b"),
        ("<r><a><a><a><b/></a></a></a></r>", "//a//a//b"),
        ("<r><b/><a><b/></a><b/></r>", "//a//b"),
    ]

    @pytest.mark.parametrize("xml,query", CASES)
    def test_handcrafted(self, xml, query):
        doc = parse(xml)
        assert twig_nodes(doc, query) == \
            [n.nid for n in evaluate_xpath(doc, query)]

    def test_output_at_interior_level(self, recursive_doc):
        # Extract the MIDDLE of the chain: sections that contain a
        # title somewhere below AND sit under doc.
        query = "//doc//section//title"
        tree = build_from_path(parse_xpath(query))
        section_vertex = tree.var_vertex["#result"].parent_edge.parent
        operator = TwigStackOperator(tree, recursive_doc)
        got = {n.attrs.get("id") for n in operator.matching_nodes(section_vertex)}
        assert got == {"1", "1.1", "1.1.1", "2"}

    def test_with_value_predicate(self, small_bib):
        query = '//book//last[. = "Knuth"]'
        # small_bib has no Knuth: empty everywhere.
        assert twig_nodes(small_bib, query) == \
            [n.nid for n in evaluate_xpath(small_bib, query)] == []

    @COMMON_SETTINGS
    @given(doc=xml_documents(),
           tags=st.lists(st.sampled_from(TAGS), min_size=1, max_size=3))
    def test_random_chains_match_oracle(self, doc, tags):
        query = "//" + "//".join(tags)
        assert twig_nodes(doc, query) == \
            [n.nid for n in evaluate_xpath(doc, query)]


class TestCounters:
    def test_io_is_stream_sum(self, small_bib):
        tree = build_from_path(parse_xpath("//book//last"))
        counters = ScanCounters()
        operator = TwigStackOperator(tree, small_bib, counters=counters)
        operator.matching_nodes(tree.var_vertex["#result"])
        assert counters.nodes_scanned == 6  # 3 books + 3 lasts

    def test_memory_tracks_stacks(self, recursive_doc):
        tree = build_from_path(parse_xpath("//section//section"))
        counters = ScanCounters()
        operator = TwigStackOperator(tree, recursive_doc, counters=counters)
        operator.matching_nodes(tree.var_vertex["#result"])
        assert counters.peak_buffered >= 2
