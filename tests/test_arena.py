"""The flat struct-of-arrays arena (BTRA1): round-trip, zero-copy
reopen, lazy node views, snapshot file lifecycle.

The arena is the cross-process scan image behind ``executor="processes"``:
one contiguous buffer a worker mmaps read-only and walks as columns.
Everything Theorem 1 needs — pre-order node ids, region labels,
ancestorship — must survive the round trip bit for bit.
"""

import mmap
import os

import pytest

from repro.errors import ReproError
from repro.xmlkit import parse
from repro.xmlkit.arena import (
    ArenaDocument,
    DocumentArena,
)
from repro.xmlkit.tree import ELEMENT, TEXT

XML = ("<bib>" + "".join(
    f"<shelf><book year='{1990 + i % 7}' id='b{i}'><author>a{i % 3}</author>"
    f"<title>t{i}</title><price>{i % 40}</price></book></shelf>"
    for i in range(40)) + "</bib>")


def roundtrip(doc):
    return DocumentArena.from_buffer(
        DocumentArena.from_document(doc).to_bytes())


class TestRoundTrip:
    def assert_equivalent(self, doc, arena_doc):
        assert len(arena_doc.nodes) == len(doc.nodes)
        for node in doc.nodes:
            twin = arena_doc.nodes[node.nid]
            assert twin.nid == node.nid
            assert twin.kind == node.kind
            assert twin.tag == node.tag
            assert twin.text == node.text
            assert (twin.start, twin.end, twin.level) == \
                (node.start, node.end, node.level)
            assert twin.attrs == node.attrs
            assert [c.nid for c in twin.children] == \
                [c.nid for c in node.children]
            assert (twin.parent.nid if twin.parent else None) == \
                (node.parent.nid if node.parent else None)

    def test_every_field_survives(self):
        doc = parse(XML)
        self.assert_equivalent(doc, roundtrip(doc).document())

    def test_unicode_text_and_attrs(self):
        doc = parse("<a läng='ü'>têxt — ∀x</a>".replace("läng", "lang"))
        self.assert_equivalent(doc, roundtrip(doc).document())

    def test_root_discovery_skips_non_elements(self):
        doc = parse("<?xml version='1.0'?><a><b/></a>")
        arena_doc = roundtrip(doc).document()
        assert arena_doc.root is not None
        assert arena_doc.root.tag == doc.root.tag

    def test_string_values_match(self):
        doc = parse(XML)
        arena_doc = roundtrip(doc).document()
        for node in doc.nodes:
            if node.kind == ELEMENT:
                assert arena_doc.nodes[node.nid].string_value() == \
                    node.string_value()

    def test_bad_magic_refused(self):
        with pytest.raises(ReproError, match="magic"):
            DocumentArena.from_buffer(b"NOTANARENA" + b"\x00" * 64)

    def test_truncated_buffer_refused(self):
        blob = DocumentArena.from_document(parse(XML)).to_bytes()
        with pytest.raises(ReproError, match="truncated"):
            DocumentArena.from_buffer(blob[:len(blob) // 2])


class TestZeroCopy:
    def test_columns_view_the_mmap(self, tmp_path):
        path = tmp_path / "doc.btra"
        path.write_bytes(DocumentArena.from_document(parse(XML)).to_bytes())
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        arena = DocumentArena.from_buffer(mapped)
        assert isinstance(arena.parent, memoryview)
        assert isinstance(arena.heap, memoryview)
        assert arena._buffer is mapped
        # The view is usable end to end before any copy happens.
        doc = arena.document()
        assert doc.root.tag == "bib"

    def test_lazy_materialization(self):
        doc = parse(XML)
        arena_doc = roundtrip(doc).document()
        assert isinstance(arena_doc, ArenaDocument)
        baseline = arena_doc.materialized()
        assert baseline <= 2                   # root discovery only
        arena_doc.nodes[5]
        arena_doc.nodes[6]
        assert arena_doc.materialized() <= baseline + 2

    def test_node_views_are_identity_stable(self):
        arena_doc = roundtrip(parse(XML)).document()
        node = arena_doc.nodes[7]
        assert arena_doc.nodes[7] is node
        kid = node.children[0] if node.children else None
        if kid is not None:
            assert kid.parent is node


class TestSnapshotFiles:
    def test_arena_file_written_once_and_cached(self):
        doc = parse("<a><b/></a>")
        path = doc.derived.arena_file()
        try:
            assert os.path.exists(path)
            assert doc.derived.arena_file() == path
            with open(path, "rb") as handle:
                arena = DocumentArena.from_buffer(handle.read())
            assert arena.n_nodes == len(doc.nodes)
        finally:
            doc.drop_derived()

    def test_release_unlinks_and_is_idempotent(self):
        doc = parse("<a><b/></a>")
        path = doc.derived.arena_file()
        doc.drop_derived()
        assert not os.path.exists(path)
        doc.drop_derived()                     # no-op, no error
        # A fresh request after the drop writes a new file.
        path2 = doc.derived.arena_file()
        try:
            assert path2 != path
            assert os.path.exists(path2)
        finally:
            doc.drop_derived()

    def test_text_payloads_slice_the_heap(self):
        doc = parse("<a>alpha<b>beta</b></a>")
        arena = roundtrip(doc)
        texts = [arena.payload_bytes(n.nid) for n in doc.nodes
                 if n.kind == TEXT]
        assert b"alpha" in texts and b"beta" in texts
