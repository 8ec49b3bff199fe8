"""Unit tests for serialization, labeling, stats, index, storage, SAX."""

import pytest

from repro.errors import DNFError, XMLSyntaxError
from repro.xmlkit import (
    ScanCounters,
    SequentialScan,
    TagIndex,
    compute_stats,
    parse,
    pretty,
    region_of,
    serialize,
)
from repro.xmlkit.labeling import (
    Region,
    axis_predicate,
    before,
    contains,
    following,
    is_parent,
    preceding,
)
from repro.xmlkit.sax import ContentHandler, parse_string


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
    def test_region_ordering_is_document_order(self, small_bib):
        regions = [region_of(n) for n in small_bib.nodes]
        assert regions == sorted(regions)

    def test_containment(self, small_bib):
        bib = region_of(small_bib.root)
        book = region_of(small_bib.elements_by_tag("book")[0])
        last = region_of(small_bib.elements_by_tag("last")[0])
        assert contains(bib, book) and contains(bib, last)
        assert is_parent(bib, book)
        assert not is_parent(bib, last)
        assert not contains(book, bib)

    def test_order_predicates(self, small_bib):
        b0 = region_of(small_bib.elements_by_tag("book")[0])
        b1 = region_of(small_bib.elements_by_tag("book")[1])
        bib = region_of(small_bib.root)
        assert before(b0, b1) and not before(b1, b0)
        assert preceding(b0, b1)          # disjoint
        assert not preceding(bib, b0)     # ancestor overlaps
        assert before(bib, b0)            # but << holds for ancestors
        assert following(b1, b0)

    def test_axis_predicate_lookup(self):
        up = Region(0, 9, 0)
        down = Region(1, 2, 1)
        assert axis_predicate("descendant")(up, down)
        assert axis_predicate("child")(up, down)
        assert axis_predicate("ancestor")(down, up)
        with pytest.raises(KeyError):
            axis_predicate("attribute")


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
        index = TagIndex(small_bib)
        stream = index.stream("author")
        seen = []
        while not stream.eof():
            seen.append(stream.head().nid)
            stream.advance()
        assert seen == sorted(seen)
        assert len(seen) == 3

    def test_has_and_cardinality(self, small_bib):
        index = TagIndex(small_bib)
        assert index.has("book") and not index.has("nothing")
        assert index.cardinality("book") == 3

    def test_skip_to_start(self, small_bib):
        index = TagIndex(small_bib)
        books = index.nodes("book")
        stream = index.stream("book")
        stream.skip_to_start(books[1].start)
        assert stream.head() is books[1]
        stream.skip_to_start(books[2].start + 1)
        assert stream.eof()

    def test_invalidate(self, small_bib):
        index = small_bib.derived.index
        assert index.has("book") and index.built
        assert small_bib.elements_by_tag("book") is index.nodes("book")
        assert small_bib.drop_derived()     # the built index went with it
        fresh = small_bib.derived.index
        assert fresh is not index and not fresh.built
        assert fresh.has("book")  # rebuilt on demand

    def test_clone_is_independent(self, small_bib):
        index = TagIndex(small_bib)
        stream = index.stream("book")
        clone = stream.clone()
        stream.advance()
        assert clone.pos == 0 and stream.pos == 1


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


class _Recorder(ContentHandler):
    def __init__(self):
        self.events = []

    def start_document(self):
        self.events.append("start-doc")

    def end_document(self):
        self.events.append("end-doc")

    def start_element(self, tag, attrs):
        self.events.append(("s", tag, dict(attrs)))

    def end_element(self, tag):
        self.events.append(("e", tag))

    def characters(self, text):
        if text.strip():
            self.events.append(("t", text))


class TestSAX:
    def test_event_sequence(self):
        handler = _Recorder()
        parse_string('<a x="1"><b>hi</b></a>', handler)
        assert handler.events == [
            "start-doc", ("s", "a", {"x": "1"}), ("s", "b", {}),
            ("t", "hi"), ("e", "b"), ("e", "a"), "end-doc"]

    def test_well_formedness_enforced(self):
        with pytest.raises(XMLSyntaxError):
            parse_string("<a><b></a>", _Recorder())
        with pytest.raises(XMLSyntaxError):
            parse_string("<a/><b/>", _Recorder())
        with pytest.raises(XMLSyntaxError):
            parse_string("", _Recorder())
