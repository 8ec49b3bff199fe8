"""The stream-context plan (paper Section 5.2): one sequential pass.

The paper prefers the pipelined algorithm "in the stream context":
every NoK is matched in a single document-order scan and the
``//``-joins merge the scan's output without re-reading it.  These
cases run raw XML text through ``strategy="pipelined"``, check that
exactly one scan ran, and compare with the navigational oracle.
"""

import pytest

from repro.engine import Engine
from repro.xmlkit import parse, serialize
from repro.xmlkit.storage import ScanCounters
from repro.xpath import evaluate_xpath
from tests.conftest import SMALL_BIB


def stream_nodes(doc, pattern, counters=None):
    """``pattern``'s answer from one sequential pass over ``doc``."""
    counters = counters if counters is not None else ScanCounters()
    result = Engine(doc).query(pattern, strategy="pipelined",
                               counters=counters)
    assert counters.scans_started == 1, pattern
    return result.nodes()


def stream_count(xml_text, pattern):
    return len(stream_nodes(parse(xml_text), pattern))


def tree_count(doc, pattern):
    return len(evaluate_xpath(doc, pattern))


def agrees_with_oracle(doc, pattern):
    got = [n.nid for n in stream_nodes(doc, pattern)]
    assert got == [n.nid for n in evaluate_xpath(doc, pattern)], pattern


class TestAgainstTreeMatcher:
    PATTERNS = [
        "//book",
        "//book/author",
        "//book/author/last",
        "//book/price",
        '//book[@year = "2000"]',
        '//book[@year = "2000"]/author',
    ]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_counts_agree_small_bib(self, small_bib, pattern):
        agrees_with_oracle(small_bib, pattern)

    RECURSIVE_PATTERNS = [
        "//section",
        "//section/title",
        "//section/section",
        "//section/section/title",
    ]

    @pytest.mark.parametrize("pattern", RECURSIVE_PATTERNS)
    def test_counts_agree_recursive(self, recursive_doc, pattern):
        agrees_with_oracle(recursive_doc, pattern)

    def test_counts_agree_on_generated_corpus(self):
        from repro.datagen import generate_d3
        doc = parse(serialize(generate_d3(scale=0.05).root))
        for pattern in ("//item/attributes", "//author/name/last_name",
                        "//publisher/street_information"):
            agrees_with_oracle(doc, pattern)


class TestStreamingSpecifics:
    def test_collect_leaf_values(self, small_bib):
        values = [n.string_value() for n in stream_nodes(small_bib, "//last")]
        assert values == ["Stevens", "Abiteboul", "Buneman"]

    def test_text_predicate(self):
        assert stream_count(SMALL_BIB, '//last[. = "Stevens"]') == 1

    def test_memory_bounded_by_depth_not_size(self):
        wide = parse("<r>" + "<a><b/></a>" * 500 + "</r>")
        counters = ScanCounters()
        assert len(stream_nodes(wide, "//a//b", counters)) == 500
        assert counters.peak_buffered <= 1  # hundreds of matches, tiny state

    def test_mandatory_children_enforced(self):
        assert stream_count(SMALL_BIB, "//book[author]") == 2  # Economics has none

    def test_single_pass_over_raw_text(self):
        assert stream_count("<r><a><b/><b/></a><a/></r>", "//a[b]") == 1


class TestNumericPredicates:
    """Numeric equality literals: the single pass and the oracle agree.

    Regression: ``NumberLiteral`` predicates used to be rejected as
    non-streamable because the literal check only accepted ``Literal``.
    """

    NUMERIC_PATTERNS = [
        "//book[@year = 2000]",
        "//book[2000 = @year]",
        "//book[@year = 1850]",
        "//book/price[. = 39.95]",
        "//book/price[39.95 = .]",
        "//book/price[. = 100]",
    ]

    @pytest.mark.parametrize("pattern", NUMERIC_PATTERNS)
    def test_counts_agree_with_tree_matcher(self, small_bib, pattern):
        agrees_with_oracle(small_bib, pattern)

    def test_attribute_number_both_operand_orders(self):
        assert stream_count(SMALL_BIB, "//book[@year = 2000]") == 1
        assert stream_count(SMALL_BIB, "//book[2000 = @year]") == 1

    def test_text_number_matches_despite_formatting(self):
        xml = "<r><a> 5 </a><a>5.0</a><a>4</a></r>"
        assert stream_count(xml, "//a[. = 5]") == 2

    def test_unparsable_value_is_unequal_not_an_error(self):
        xml = '<r><a x="n/a">word</a><a x="5">5</a></r>'
        for pattern in ("//a[@x = 5]", "//a[. = 5]"):
            assert stream_count(xml, pattern) == 1
            assert tree_count(parse(xml), pattern) == 1


class TestOneComparison:
    """The single pass compares the way the oracle does: the literal is
    stripped, and coerced when it spells a number (regression: a private
    ``_atoms_equal`` compared string literals exactly and never coerced
    them)."""

    XML = '<r><a k=" v ">x</a><a k="v"> x </a><a k="1.0">1</a></r>'
    CASES = [('//a[. = " x "]', 2), ('//a[@k = " v "]', 2),
             ('//a[@k = "v"]', 2), ('//a[@k = "1"]', 1),
             ('//a[. = "1.0"]', 1), ("//a[@k = 1]", 1)]

    @pytest.mark.parametrize("pattern,count", CASES)
    def test_stream_agrees_with_tree(self, pattern, count):
        assert stream_count(self.XML, pattern) == count
        assert tree_count(parse(self.XML), pattern) == count
