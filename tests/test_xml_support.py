"""Unit tests for serialization, labeling, stats, index, storage, events."""

import pytest

from repro.errors import DNFError, XMLSyntaxError
from repro.xmlkit import (
    ScanCounters,
    SequentialScan,
    TagIndex,
    compute_stats,
    parse,
    pretty,
    serialize,
)
from repro.xmlkit.tokenizer import CHARS, END, START, tokenize


class TestSerialize:
    def test_round_trip(self, small_bib):
        text = serialize(small_bib.root)
        again = parse(text)
        assert serialize(again.root) == text

    def test_escaping(self):
        doc = parse("<a x=\"&quot;q&quot;\">a &lt; b &amp; c</a>")
        out = serialize(doc.root)
        assert "&lt;" in out and "&amp;" in out and "&quot;" in out
        assert serialize(parse(out).root) == out

    def test_empty_element_short_form(self):
        assert serialize(parse("<a><b></b></a>").root) == "<a><b/></a>"

    def test_pretty_is_reparsable(self, small_bib):
        text = pretty(small_bib.root)
        assert parse(text).root.tag == "bib"

    def test_pretty_inlines_text_only_elements(self):
        out = pretty(parse("<a><b>hi</b></a>").root)
        assert "<b>hi</b>" in out


class TestLabeling:
    """The ``(start, end, level)`` labels every node carries."""

    def test_region_ordering_is_document_order(self, small_bib):
        labels = [(n.start, n.end, n.level) for n in small_bib.nodes]
        assert labels == sorted(labels)
        assert [n.start for n in small_bib.nodes] \
            == sorted({n.start for n in small_bib.nodes})

    def test_containment(self, small_bib):
        bib = small_bib.root
        book = small_bib.elements_by_tag("book")[0]
        last = small_bib.elements_by_tag("last")[0]
        assert bib.is_ancestor_of(book) and bib.is_ancestor_of(last)
        assert bib.is_parent_of(book) and book.level == bib.level + 1
        assert not bib.is_parent_of(last)
        assert not book.is_ancestor_of(bib)

    def test_order_predicates(self, small_bib):
        b0, b1 = small_bib.elements_by_tag("book")[:2]
        bib = small_bib.root
        assert b0.precedes(b1) and not b1.precedes(b0)
        assert b0.end < b1.start              # disjoint
        assert not bib.end < b0.start         # ancestor overlaps
        assert bib.precedes(b0)               # but << holds for ancestors
        assert b1.start > b0.end              # b1 follows b0
        assert not b0.start > bib.end         # b0 does not follow bib

    def test_axis_predicate_lookup(self, small_bib):
        up = small_bib.root
        down = small_bib.elements_by_tag("book")[0]
        assert up.start < down.start and down.end < up.end
        assert up.is_ancestor_of(down) and down.level == up.level + 1
        assert not down.is_ancestor_of(up)
        document = small_bib.document_node
        assert all(document.is_ancestor_of(node)
                   for node in small_bib.nodes[1:])


class TestStats:
    def test_small_bib_stats(self, small_bib):
        stats = compute_stats(small_bib)
        assert stats.n_elements == 17
        assert stats.max_depth == 4
        assert stats.n_distinct_tags == 7
        assert not stats.recursive
        assert stats.recursion_degree == 1
        assert stats.serialized_bytes > 0

    def test_recursion_detection(self, recursive_doc):
        stats = compute_stats(recursive_doc, with_size=False)
        assert stats.recursive
        assert stats.recursion_degree == 3  # section within section within section

    def test_tag_histogram(self, small_bib):
        stats = compute_stats(small_bib, with_size=False)
        assert stats.tag_histogram["book"] == 3
        assert stats.tag_histogram["author"] == 3

    def test_table1_row_shape(self, small_bib):
        row = compute_stats(small_bib).table1_row("x")
        assert row["recursive?"] == "N"
        assert row["|tags|"] == 7


class TestTagIndex:
    def test_streams_are_document_ordered(self, small_bib):
        seen = [node.nid for node in TagIndex(small_bib).nodes("author")]
        assert seen == sorted(seen)
        assert len(seen) == 3

    def test_has_and_cardinality(self, small_bib):
        index = TagIndex(small_bib)
        assert index.has("book") and not index.has("nothing")
        assert index.cardinality("book") == 3

    def test_invalidate(self, small_bib):
        index = small_bib.derived.index
        assert index.has("book") and index.built
        assert small_bib.elements_by_tag("book") is index.nodes("book")
        assert small_bib.drop_derived()     # the built index went with it
        fresh = small_bib.derived.index
        assert fresh is not index and not fresh.built
        assert fresh.has("book")  # rebuilt on demand


class TestSequentialScan:
    def test_counts_every_node(self, small_bib):
        counters = ScanCounters()
        elements = list(SequentialScan(small_bib, counters))
        assert counters.nodes_scanned == len(small_bib.nodes)
        assert counters.scans_started == 1
        assert all(e.kind == 1 for e in elements)

    def test_range_scan(self, small_bib):
        book = small_bib.elements_by_tag("book")[1]
        counters = ScanCounters()
        scan = SequentialScan(small_bib, counters, book.nid,
                              book.nid + book.subtree_size())
        tags = [n.tag for n in scan]
        assert tags[0] == "book"
        assert "author" in tags

    def test_budget_raises_dnf(self, small_bib):
        counters = ScanCounters(budget=5)
        with pytest.raises(DNFError):
            list(SequentialScan(small_bib, counters))

    def test_note_buffer_tracks_peak(self):
        counters = ScanCounters()
        counters.note_buffer(3)
        counters.note_buffer(1)
        assert counters.peak_buffered == 3
        assert counters.snapshot()["peak_buffered"] == 3


class TestSAX:
    """The SAX-style event stream is the tokenizer's; the parser
    enforces well-formedness over it."""

    def test_event_sequence(self):
        events = [(e.kind, e.value)
                  for e in tokenize('<a x="1"><b>hi</b><c/></a>')]
        assert events == [
            (START, ("a", {"x": "1"})), (START, ("b", {})), (CHARS, "hi"),
            (END, "b"), (START, ("c", {})), (END, "c"), (END, "a")]

    def test_well_formedness_enforced(self):
        for text in ("<a><b></a>", "<a/><b/>", "", "<a>"):
            with pytest.raises(XMLSyntaxError):
                parse(text)
