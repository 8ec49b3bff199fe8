"""The serialized-text column: a node's XML is a slice of its version's
document text.

``serialize`` answers a node of a document with live derived state by
``text[lo[nid]:hi[nid]]`` from ``doc.derived.xml``; the raw writer
(what ``serialize`` runs on a document with no derived state) is the
oracle.  The column's carry across versions (shared by a fork, patched
by an update) is asserted in ``test_update.py`` and
``test_derived_state.py``.
"""

import sys

from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.xmlkit import parse, serialize
from repro.xmlkit.writer import text_column
from repro.xmlkit.tree import Constructed, DocumentBuilder
from repro.xmlkit.update import DocumentUpdater

TAGS = ["a", "b", "c"]
#: Characters every escape rule sees, plus non-ASCII text.
ALPHABET = "x &<>\"'é中🙂"
VALUES = st.text(alphabet=ALPHABET, max_size=6)


@st.composite
def documents(draw, max_depth=5):
    """A recursive document over three tags: attributes and text drawn
    from :data:`ALPHABET` (empty strings included), empty elements."""
    builder = DocumentBuilder()

    def emit(depth):
        attrs = draw(st.dictionaries(st.sampled_from(["k", "v"]), VALUES,
                                     max_size=2))
        builder.start_element(draw(st.sampled_from(TAGS)), attrs or None)
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.integers(0, 2)) == 0:
                    builder.text(draw(VALUES))
                else:
                    emit(depth + 1)
        builder.end_element()

    emit(0)
    return builder.finish()


def raw_and_sliced(doc):
    """Every node's serialization by the raw writer, then by slices."""
    assert doc._derived is None
    raw = [serialize(node) for node in doc.nodes]
    column = doc.derived.xml
    assert doc._derived._xml is column
    return raw, [serialize(node) for node in doc.nodes]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
def test_every_slice_is_the_raw_writers_output(doc):
    raw, sliced = raw_and_sliced(doc)
    assert sliced == raw
    assert doc.derived.xml.text == raw[0]
    assert text_column(doc.nodes) == doc.derived.xml


def test_a_document_deeper_than_the_recursion_limit():
    depth = 2 * sys.getrecursionlimit()
    doc = parse('<a k="&amp;">' * depth + "<leaf>x&lt;</leaf>"
                + "</a>" * depth)
    probes = [doc.nodes[i] for i in (0, 1, 2, depth // 2, depth, depth + 1,
                                     depth + 2)]
    raw = [serialize(node) for node in probes]
    doc.derived.xml                     # built with no RecursionError
    assert [serialize(node) for node in probes] == raw
    assert raw[-1] == "x&lt;"


def test_constructed_document_pieces_are_slices_and_match_the_raw_writer():
    doc = parse('<r><b k="&lt;">1 &amp; 2</b><c/><b>é</b></r>')
    b1, c, b2 = doc.root.children
    inner = Constructed("in", {}, [b2, "<&>"])
    outer = Constructed("out", {"q": '"'}, ["t&", b1, inner, c, ""])
    raw = serialize(outer)
    assert doc._derived is None
    doc.derived.xml
    sliced = serialize(outer)
    assert sliced == raw == (
        '<out q="&quot;">t&amp;<b k="&lt;">1 &amp; 2</b>'
        "<in><b>é</b>&lt;&amp;&gt;</in><c/></out>")
    assert outer.content is not None        # nothing was materialised


def test_a_materialised_constructed_element_is_sliced_from_its_own_document():
    with repro.connect('<r><b><t>1</t></b><b><t>2 &amp;</t></b></r>') as db:
        [item] = db.query("for $r in /r return <all>{$r//t}</all>")
        text = serialize(item)              # by reference
        assert item.content is not None
        item.children                       # materialises
        assert item.content is None and item.doc.nodes[1] is item
        raw, sliced = raw_and_sliced(item.doc)
        assert sliced == raw
        assert serialize(item) == text == "<all><t>1</t><t>2 &amp;</t></all>"


def test_a_deleted_subtree_keeps_its_text():
    doc = parse("<r><a><b>x</b></a><c/></r>")
    doc.derived.xml
    updater = DocumentUpdater(doc)
    fork = updater.doc                      # shares the base's column
    a = fork.root.children[0]
    updater.delete_subtree(a)
    assert serialize(a) == "<a><b>x</b></a>"
    assert serialize(fork.root) == "<r><c/></r>"
    assert serialize(doc.root) == "<r><a><b>x</b></a><c/></r>"
