"""Additional property-based suites: updates, the single pass, correlated FLWOR."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.engine import Engine
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.update import DocumentUpdater
from repro.xpath import evaluate_xpath

from tests.test_property_based import COMMON_SETTINGS, TAGS, xml_documents


def _chain_paths():
    return st.lists(st.sampled_from(TAGS), min_size=1, max_size=3) \
        .map(lambda tags: "//" + "/".join(tags))


class TestStreamingEquivalence:
    """The stream-context plan: one sequential pass answers child
    chains exactly as the navigational oracle, recursion included."""

    @COMMON_SETTINGS
    @given(doc=xml_documents(), path=_chain_paths())
    def test_stream_count_matches_tree_matcher(self, doc, path):
        counters = ScanCounters()
        got = Engine(doc).query(path, strategy="pipelined", counters=counters)
        assert [n.nid for n in got.nodes()] == \
            [n.nid for n in evaluate_xpath(doc, path)]
        assert counters.scans_started <= 1  # 0: a label the document lacks


class TestUpdateInvariants:
    @COMMON_SETTINGS
    @given(doc=xml_documents(), victim=st.integers(0, 30),
           tag=st.sampled_from(TAGS))
    def test_labels_valid_after_random_delete_and_insert(self, doc, victim, tag):
        updater = DocumentUpdater(doc)
        elements = [n for n in doc.elements() if n is not doc.root]
        if elements:
            updater.delete_subtree(elements[victim % len(elements)])
        updater.insert_subtree(doc.root, parse(f"<{tag}/>").root)

        # Full structural invariant sweep.
        assert [n.nid for n in doc.nodes] == list(range(len(doc.nodes)))
        for node in doc.nodes:
            for child in node.children:
                assert child.parent is node
                assert node.start < child.start < child.end < node.end
                assert child.level == node.level + 1

    @COMMON_SETTINGS
    @given(doc=xml_documents(), tag=st.sampled_from(TAGS))
    def test_queries_agree_after_update(self, doc, tag):
        updater = DocumentUpdater(doc)
        updater.insert_subtree(doc.root, parse(f"<{tag}><a/></{tag}>").root)
        engine = Engine(doc)
        query = f"//{tag}/a"
        reference = [n.nid for n in engine.query(query, strategy="naive").nodes()]
        for strategy in ("stack", "bnlj", "twigstack"):
            got = [n.nid for n in engine.query(query, strategy=strategy).nodes()]
            assert got == reference, strategy


class TestCorrelatedFLWOR:
    @COMMON_SETTINGS
    @given(doc=xml_documents(), t1=st.sampled_from(TAGS),
           t2=st.sampled_from(TAGS))
    def test_node_order_correlation(self, doc, t1, t2):
        engine = Engine(doc)
        query = (f"for $x in //{t1}, $y in //{t2} "
                 "where $x << $y return <p/>")
        reference = len(engine.query(query, strategy="naive"))
        for strategy in ("stack", "bnlj", "auto"):
            assert len(engine.query(query, strategy=strategy)) == reference, \
                strategy

    @COMMON_SETTINGS
    @given(doc=xml_documents(), t1=st.sampled_from(TAGS))
    def test_deep_equal_correlation(self, doc, t1):
        engine = Engine(doc)
        query = (f"for $x in //{t1}, $y in //{t1} "
                 "where $x << $y and deep-equal($x/a, $y/a) "
                 "return <p/>")
        reference = engine.query(query, strategy="naive").serialize()
        assert engine.query(query, strategy="stack").serialize() == reference

    @COMMON_SETTINGS
    @given(doc=xml_documents(), t1=st.sampled_from(TAGS),
           t2=st.sampled_from(TAGS))
    def test_let_then_for_correlation(self, doc, t1, t2):
        engine = Engine(doc)
        query = (f"let $xs := //{t1} for $y in $xs/{t2} "
                 "return $y")
        reference = [n.nid for n in engine.query(query, strategy="naive").nodes()]
        got = [n.nid for n in engine.query(query, strategy="stack").nodes()]
        assert got == reference
