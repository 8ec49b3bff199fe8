"""Tests for the streaming (SAX) NoK matcher."""

import pytest

from repro.errors import CompileError
from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher
from repro.physical.streaming import StreamingNoKMatcher, stream_count
from repro.xmlkit import serialize
from repro.xmlkit.sax import parse_string
from repro.xpath import parse_xpath
from tests.conftest import RECURSIVE_DOC, SMALL_BIB


def nok_for(path_text):
    tree = build_from_path(parse_xpath(path_text))
    dec = decompose(tree)
    element_noks = [n for n in dec.noks if n.root.name != "#root"]
    assert len(element_noks) == 1, "pattern must be a single NoK for streaming"
    return element_noks[0]


def tree_count(doc, nok):
    return len(NoKMatcher(nok, doc, variables={}).matches())


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
        nok = nok_for(pattern)
        assert stream_count(SMALL_BIB, nok) == tree_count(small_bib, nok)

    RECURSIVE_PATTERNS = [
        "//section",
        "//section/title",
        "//section/section",
        "//section/section/title",
    ]

    @pytest.mark.parametrize("pattern", RECURSIVE_PATTERNS)
    def test_counts_agree_recursive(self, recursive_doc, pattern):
        nok = nok_for(pattern)
        assert stream_count(RECURSIVE_DOC, nok) == \
            tree_count(recursive_doc, nok)

    def test_counts_agree_on_generated_corpus(self):
        from repro.datagen import generate_d3
        doc = generate_d3(scale=0.05)
        text = serialize(doc.root)
        for pattern in ("//item/attributes", "//author/name/last_name",
                        "//publisher/street_information"):
            nok = nok_for(pattern)
            assert stream_count(text, nok) == tree_count(doc, nok), pattern


class TestStreamingSpecifics:
    def test_collect_leaf_values(self, small_bib):
        nok = nok_for("//last")
        handler = StreamingNoKMatcher(nok, collect_values=True)
        parse_string(SMALL_BIB, handler)
        assert handler.root_values == ["Stevens", "Abiteboul", "Buneman"]

    def test_text_predicate(self):
        nok = nok_for('//last[. = "Stevens"]')
        assert stream_count(SMALL_BIB, nok) == 1

    def test_memory_bounded_by_depth_not_size(self):
        wide = "<r>" + "<a><b/></a>" * 500 + "</r>"
        nok = nok_for("//a/b")
        handler = StreamingNoKMatcher(nok)
        parse_string(wide, handler)
        assert handler.count == 500
        assert handler.max_open < 20  # hundreds of matches, tiny state

    def test_mandatory_children_enforced(self):
        nok = nok_for("//book/author")
        count = stream_count(SMALL_BIB, nok)
        assert count == 2  # Economics has no author

    def test_root_pattern_rejected(self):
        tree = build_from_path(parse_xpath("/bib/book"))
        dec = decompose(tree)
        with pytest.raises(CompileError):
            StreamingNoKMatcher(dec.noks[0])

    def test_non_streamable_predicate_rejected(self):
        with pytest.raises(CompileError):
            StreamingNoKMatcher(nok_for("//book[price > 3]"))

    def test_single_pass_over_raw_text(self):
        # stream_count parses raw text: no Document is ever built.
        nok = nok_for("//a/b")
        assert stream_count("<r><a><b/><b/></a><a/></r>", nok) == 1


class TestNumericPredicates:
    """Numeric equality literals: stream and tree matchers must agree.

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
        nok = nok_for(pattern)
        assert stream_count(SMALL_BIB, nok) == tree_count(small_bib, nok)

    def test_attribute_number_both_operand_orders(self):
        assert stream_count(SMALL_BIB, nok_for("//book[@year = 2000]")) == 1
        assert stream_count(SMALL_BIB, nok_for("//book[2000 = @year]")) == 1

    def test_text_number_matches_despite_formatting(self):
        xml = "<r><a> 5 </a><a>5.0</a><a>4</a></r>"
        assert stream_count(xml, nok_for("//a[. = 5]")) == 2

    def test_unparsable_value_is_unequal_not_an_error(self):
        from repro.xmlkit import parse

        xml = '<r><a x="n/a">word</a><a x="5">5</a></r>'
        for pattern in ("//a[@x = 5]", "//a[. = 5]"):
            nok = nok_for(pattern)
            assert stream_count(xml, nok) == 1
            assert tree_count(parse(xml), nok_for(pattern)) == 1


class TestOneComparison:
    """The stream matcher compares the way the tree engines do: the
    literal is stripped, and coerced when it spells a number
    (regression: a private ``_atoms_equal`` compared string literals
    exactly and never coerced them)."""

    XML = '<r><a k=" v ">x</a><a k="v"> x </a><a k="1.0">1</a></r>'
    CASES = [('//a[. = " x "]', 2), ('//a[@k = " v "]', 2),
             ('//a[@k = "v"]', 2), ('//a[@k = "1"]', 1),
             ('//a[. = "1.0"]', 1), ("//a[@k = 1]", 1)]

    @pytest.mark.parametrize("pattern,count", CASES)
    def test_stream_agrees_with_tree(self, pattern, count):
        from repro.xmlkit import parse

        nok = nok_for(pattern)
        assert stream_count(self.XML, nok) == count
        assert tree_count(parse(self.XML), nok) == count

