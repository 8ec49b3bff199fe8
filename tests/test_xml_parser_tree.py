"""Unit tests for the tree parser and the node/document model."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlkit import parse, serialize
from repro.xmlkit.tree import (
    DOCUMENT,
    ELEMENT,
    TEXT,
    DocumentBuilder,
    deep_equal,
    deep_equal_sequences,
)


class TestParserWellFormedness:
    def test_mismatched_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b></a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b>")

    def test_stray_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/></b>")

    def test_two_roots_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/><b/>")

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/>junk")

    def test_whitespace_outside_root_allowed(self):
        doc = parse("  <a/>  ")
        assert doc.root.tag == "a"

    def test_empty_input_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("")


class TestTreeStructure:
    def test_document_node_is_nid_zero(self, small_bib):
        assert small_bib.document_node.nid == 0
        assert small_bib.document_node.kind == DOCUMENT
        assert small_bib.root.parent is small_bib.document_node

    def test_preorder_nids_are_document_order(self, small_bib):
        nids = [n.nid for n in small_bib.nodes]
        assert nids == sorted(nids)
        assert nids == list(range(len(small_bib.nodes)))

    def test_region_labels_nest_properly(self, small_bib):
        for node in small_bib.nodes:
            assert node.start < node.end
            for child in node.children:
                assert node.start < child.start
                assert child.end < node.end
                assert child.level == node.level + 1

    def test_subtree_size_matches_iteration(self, small_bib):
        for node in small_bib.nodes:
            assert node.subtree_size() == sum(1 for _ in node.subtree())

    def test_adjacent_text_merged(self):
        doc = parse("<a>one&amp;two</a>")
        texts = [n for n in doc.nodes if n.kind == TEXT]
        assert len(texts) == 1
        assert texts[0].text == "one&two"

    def test_first_child_and_following_sibling(self, small_bib):
        books = small_bib.elements_by_tag("book")
        # following_sibling is node-kind-agnostic: whitespace text nodes
        # between the books are real siblings.
        sibling = books[0].following_sibling()
        while sibling is not None and sibling.kind != ELEMENT:
            sibling = sibling.following_sibling()
        assert sibling is books[1]
        assert books[2].following_sibling() is None or \
            books[2].following_sibling().kind == TEXT
        assert small_bib.root.first_child() is not None

    def test_next_in_document(self, small_bib):
        node = small_bib.document_node
        count = 0
        while node is not None:
            count += 1
            node = node.next_in_document()
        assert count == len(small_bib.nodes)

    def test_ancestors(self, small_bib):
        last = small_bib.elements_by_tag("last")[0]
        tags = [n.tag for n in last.ancestors()]
        assert tags == ["author", "book", "bib", "#document"]

    def test_structural_predicates(self, small_bib):
        bib = small_bib.root
        book = small_bib.elements_by_tag("book")[0]
        last = small_bib.elements_by_tag("last")[0]
        assert bib.is_ancestor_of(book)
        assert bib.is_ancestor_of(last)
        assert not book.is_ancestor_of(bib)
        assert bib.is_parent_of(book)
        assert not bib.is_parent_of(last)
        assert book.precedes(last)


class TestValues:
    def test_string_value_concatenates_text(self):
        doc = parse("<a>one<b>two</b>three</a>")
        assert doc.root.string_value() == "onetwothree"

    def test_typed_value_numeric(self, small_bib):
        price = small_bib.elements_by_tag("price")[0]
        assert price.typed_value() == 65.95

    def test_typed_value_string(self, small_bib):
        title = small_bib.elements_by_tag("title")[0]
        assert title.typed_value() == "TCP/IP Illustrated"

    def test_elements_by_tag_in_document_order(self, small_bib):
        authors = small_bib.elements_by_tag("author")
        assert [a.nid for a in authors] == sorted(a.nid for a in authors)
        assert len(authors) == 3

    def test_distinct_tags(self, small_bib):
        assert "book" in small_bib.distinct_tags()
        assert "price" in small_bib.distinct_tags()


class TestDeepEqual:
    def test_equal_subtrees(self, paper_bib):
        authors = paper_bib.elements_by_tag("author")
        assert deep_equal(authors[0], authors[1])

    def test_unequal_subtrees(self, small_bib):
        authors = small_bib.elements_by_tag("author")
        assert not deep_equal(authors[0], authors[1])

    def test_empty_sequences_deep_equal(self):
        assert deep_equal(None, None)
        assert deep_equal_sequences([], [])

    def test_node_vs_empty(self, small_bib):
        author = small_bib.elements_by_tag("author")[0]
        assert not deep_equal(author, None)
        assert not deep_equal_sequences([author], [])

    def test_attribute_mismatch(self):
        a = parse('<x a="1"/>').root
        b = parse('<x a="2"/>').root
        assert not deep_equal(a, b)

    def test_whitespace_only_text_ignored(self):
        a = parse("<x><y>v</y></x>").root
        b = parse("<x>\n  <y>v</y>\n</x>").root
        assert deep_equal(a, b)


class TestDocumentBuilder:
    def test_manual_build_round_trips(self):
        builder = DocumentBuilder()
        builder.start_element("r")
        builder.element("x", "1", {"k": "v"})
        builder.element("y")
        builder.end_element()
        doc = builder.finish()
        assert serialize(doc.root) == '<r><x k="v">1</x><y/></r>'

    def test_unbalanced_build_rejected(self):
        builder = DocumentBuilder()
        builder.start_element("r")
        with pytest.raises(ValueError):
            builder.finish()

    def test_end_without_start_rejected(self):
        builder = DocumentBuilder()
        with pytest.raises(ValueError):
            builder.end_element()

    def test_second_root_rejected(self):
        builder = DocumentBuilder()
        builder.element("a")
        with pytest.raises(ValueError):
            builder.start_element("b")

    def test_text_under_document_rejected(self):
        builder = DocumentBuilder()
        with pytest.raises(ValueError):
            builder.text("boom")
