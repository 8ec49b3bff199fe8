"""Unit tests for result construction, QueryResult and order keys."""

from xml.sax.saxutils import escape

import pytest
from hypothesis import given, strategies as st

from repro.engine.construct import DirectEvaluator, order_key, run_key
from repro.engine.result import QueryResult, atom_text, content_pieces
from repro.xmlkit import parse, serialize
from repro.xmlkit.tree import Constructed, DocumentBuilder
from repro.xpath.evaluator import AttrNode


def construct(tag, *items):
    """``<tag>{items}</tag>`` through the one content rule."""
    pieces = []
    content_pieces(items, pieces)
    return Constructed(tag, {}, pieces)


class TestResultBuilder:
    """Construction: :func:`content_pieces` into a :class:`Constructed`,
    copied by :meth:`DocumentBuilder.append` when navigated."""

    def test_simple_construction(self):
        node = Constructed("out", {"k": "v"}, ["hello"])
        assert serialize(node) == '<out k="v">hello</out>'
        node.materialise()
        assert serialize(node) == '<out k="v">hello</out>'

    def test_unbalanced_rejected(self):
        builder = DocumentBuilder()
        builder.start_element("out")
        with pytest.raises(ValueError):
            builder.finish()
        with pytest.raises(ValueError):
            DocumentBuilder().end_element()

    def test_add_item_copies_nodes(self, small_bib):
        title = small_bib.elements_by_tag("title")[0]
        inner = construct("wrap", title).children[0]
        assert inner.tag == "title"
        assert inner is not title and inner.doc is not small_bib
        assert inner.string_value() == title.string_value()

    def test_add_items_space_separates_atoms(self):
        assert construct("n", 1.0, 2.0, "three").string_value() == "1 2 three"

    def test_attr_node_item_becomes_text(self, small_bib):
        node = construct("y", AttrNode(small_bib.root, "k", "1994"))
        assert node.string_value() == "1994"

    def test_append_copies_a_document_node(self, small_bib):
        builder = DocumentBuilder()
        builder.start_element("holder")
        builder.append(small_bib.document_node)
        builder.end_element()
        doc = builder.finish()
        assert doc.root.children[0].tag == "bib"


class TestQueryResult:
    def test_serialize_mixes_nodes_and_atoms(self, small_bib):
        title = small_bib.elements_by_tag("title")[0]
        result = QueryResult([title, 1.0, 2.0, "x"])
        assert result.serialize() == serialize(title) + "1 2 x"

    def test_nodes_filters_atoms(self, small_bib):
        result = QueryResult([small_bib.root, 3.0])
        assert len(result.nodes()) == 1
        assert len(result) == 2

    def test_string_values(self, small_bib):
        price = small_bib.elements_by_tag("price")[0]
        result = QueryResult([price, True, 2.5])
        assert result.string_values() == ["65.95", "true", "2.5"]

    def test_pretty_contains_content(self, small_bib):
        result = QueryResult([small_bib.elements_by_tag("author")[0]])
        assert "Stevens" in result.pretty()

    def test_iteration_and_indexing(self):
        result = QueryResult(["a", "b"])
        assert list(result) == ["a", "b"]
        assert result[1] == "b"


class TestAtomText:
    def test_float_formatting(self):
        assert atom_text(3.0) == "3"
        assert atom_text(3.5) == "3.5"

    def test_booleans(self):
        assert atom_text(True) == "true"
        assert atom_text(False) == "false"

    def test_node_string_value(self, small_bib):
        assert atom_text(small_bib.elements_by_tag("last")[0]) == "Stevens"


ORDER_VALUES = st.one_of(
    st.sampled_from(["", "a", "ab", "b", "B", "10", "9", " 9 ", "-1", "1e1",
                     "Nan", "inf", "1_0", True, False, 2.5]),
    st.text(alphabet="ab1. ", max_size=4), st.floats(allow_nan=False))


class TestOrderKey:
    def test_numeric_before_textual(self):
        assert order_key("10", False) < order_key("banana", False)

    def test_numeric_ordering(self):
        assert order_key("2", False) < order_key("10", False)
        assert order_key("10", True) < order_key("2", True)

    def test_text_ordering(self):
        assert order_key("apple", False) < order_key("banana", False)
        assert order_key("banana", True) < order_key("apple", True)

    def test_node_list_uses_first_string_value(self, small_bib):
        lasts = small_bib.elements_by_tag("last")
        assert order_key([lasts[1]], False) < order_key([lasts[0]], False)

    def test_empty_sequence(self):
        key = order_key([], False)
        assert key == order_key("", False)

    def test_descending_mirrors_ascending_on_prefixes_and_empty(self):
        # Regression: descending strings were inverted per character,
        # which sorts a prefix before its extension and "" first.
        keys = ["a", "ab", "b", "", "10", "9", "Nan"]
        ascending = sorted(keys, key=lambda k: order_key(k, False))
        assert ascending == ["9", "10", "", "Nan", "a", "ab", "b"]
        assert sorted(keys, key=lambda k: order_key(k, True)) == \
            ascending[::-1]

    @given(s=ORDER_VALUES)
    def test_run_key_is_the_order_key_of_its_nodes(self, s):
        """The finish keys a vertex's run off the typed-value column;
        the oracle parses the first node's string value."""
        doc = parse(f"<r><a>{escape(str(s))}</a><b/></r>")
        run = doc.root.children
        for descending in (False, True):
            assert run_key(run, descending) == order_key(run, descending)
            assert run_key([], descending) == order_key([], descending)

    @given(s=ORDER_VALUES, t=ORDER_VALUES)
    def test_descending_is_the_reversed_comparison(self, s, t):
        assert (order_key(s, True) < order_key(t, True)) == \
            (order_key(t, False) < order_key(s, False))
        assert (order_key(s, True) == order_key(t, True)) == \
            (order_key(s, False) == order_key(t, False))


DESCENDING_DOC = "<r><b><a>a</a></b><b><a>ab</a></b><b><a>b</a></b><b><a/></b></r>"


@pytest.mark.parametrize("strategy", ["auto", "pipelined", "naive"])
def test_order_by_descending_strings(strategy):
    from repro import Engine, parse

    result = Engine(parse(DESCENDING_DOC)).query(
        "for $b in //b order by $b/a descending return $b/a",
        strategy=strategy)
    assert result.serialize() == "<a>b</a><a>ab</a><a>a</a><a/>"


@pytest.mark.parametrize("strategy", ["auto", "naive"])
def test_order_by_descending_then_ascending(strategy):
    from repro import Engine, parse

    doc = parse("<r><b><x>m</x><y>2</y></b><b><x>m</x><y>1</y></b>"
                "<b><x>mm</x><y>3</y></b><b><x/><y>0</y></b></r>")
    result = Engine(doc).query(
        "for $b in //b order by $b/x descending, $b/y return $b/y",
        strategy=strategy)
    assert result.string_values() == ["3", "1", "2", "0"]


class TestDirectEvaluatorUnits:
    def test_check_where_none_is_true(self, small_bib):
        evaluator = DirectEvaluator(small_bib)
        assert evaluator.check_where(None, {}) is True

    def test_order_tuples_stable(self, small_bib):
        from repro.xquery.parser import parse_flwor
        flwor = parse_flwor("for $b in //book order by $b/@year return $b")
        evaluator = DirectEvaluator(small_bib)
        books = small_bib.elements_by_tag("book")
        tuples = [{"b": [b]} for b in books]
        ordered = evaluator.order_tuples(flwor.order_by, tuples)
        years = [t["b"][0].attrs["year"] for t in ordered]
        assert years == ["1994", "1999", "2000"]
