"""Tests for document updates and the derived-state maintenance contract.

An updater forks its base at construction and edits only the fork,
``updater.doc``; every test reads the fork and, where it matters, checks
that the base did not move.
"""

from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen import DATASETS
from repro.engine import Engine
from repro.engine.database import Database
from repro.xmlkit import TagIndex, parse, serialize
from repro.xmlkit.writer import text_column
from repro.xmlkit.summary import MAX_PATHS, build_summary
from repro.xmlkit.tree import ELEMENT, Document, DocumentBuilder
from repro.xmlkit.update import DocumentUpdater, UpdateError


BASE = "<r><a><x>1</x></a><b/><c><y/></c></r>"


@pytest.fixture
def doc():
    return parse(BASE)


class TestInsert:
    def test_append_child(self, doc):
        updater = DocumentUpdater(doc)
        fragment = parse("<new><leaf/></new>").root
        report = updater.insert_subtree(doc.elements_by_tag("b")[0], fragment)
        assert report.nodes_added == 2
        assert updater.reports == [report]
        assert serialize(updater.doc.root) == \
            "<r><a><x>1</x></a><b><new><leaf/></new></b><c><y/></c></r>"
        assert serialize(doc.root) == BASE

    def test_insert_at_position(self, doc):
        updater = DocumentUpdater(doc)
        fragment = parse("<z/>").root
        updater.insert_subtree(doc.root, fragment, position=0)
        assert [c.tag for c in updater.doc.root.children] == \
            ["z", "a", "b", "c"]
        assert [c.tag for c in doc.root.children] == ["a", "b", "c"]

    def test_labels_valid_after_insert(self, doc):
        updater = DocumentUpdater(doc)
        updater.insert_subtree(doc.elements_by_tag("a")[0], parse("<k/>").root)
        doc = updater.doc
        nids = [n.nid for n in doc.nodes]
        assert nids == list(range(len(doc.nodes)))
        for node in doc.nodes:
            for child in node.children:
                assert node.start < child.start and child.end < node.end
                assert child.parent is node

    def test_relabel_count_is_tail_only(self, doc):
        # Inserting under the LAST child relabels almost nothing;
        # inserting under the first relabels the whole tail.
        late = DocumentUpdater(parse(serialize(doc.root)))
        late_doc = late.doc
        late_report = late.insert_subtree(late_doc.elements_by_tag("c")[0],
                                          parse("<k/>").root)
        early = DocumentUpdater(parse(serialize(doc.root)))
        early_doc = early.doc
        early_report = early.insert_subtree(early_doc.elements_by_tag("a")[0],
                                            parse("<k/>").root)
        assert early_report.nodes_relabeled > late_report.nodes_relabeled

    def test_source_not_modified(self, doc):
        fragment_doc = parse("<new/>")
        updater = DocumentUpdater(doc)
        updater.insert_subtree(doc.root, fragment_doc.root)
        assert fragment_doc.root.parent is fragment_doc.document_node
        assert serialize(fragment_doc.root) == "<new/>"

    def test_reject_foreign_parent(self, doc):
        other = parse("<o/>")
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.insert_subtree(other.root, parse("<k/>").root)

    def test_reject_second_root(self, doc):
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.insert_subtree(updater.doc.document_node,
                                   parse("<k/>").root)

    def test_reject_bad_position(self, doc):
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.insert_subtree(doc.root, parse("<k/>").root, position=99)


class TestDelete:
    def test_delete_middle_subtree(self, doc):
        updater = DocumentUpdater(doc)
        report = updater.delete_subtree(doc.elements_by_tag("a")[0])
        assert report.nodes_removed == 3  # a, x, text
        fork = updater.doc
        assert serialize(fork.root) == "<r><b/><c><y/></c></r>"
        nids = [n.nid for n in fork.nodes]
        assert nids == list(range(len(fork.nodes)))
        assert serialize(doc.root) == BASE

    def test_cannot_delete_root(self, doc):
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.delete_subtree(doc.root)

    def test_queries_correct_after_update(self, doc):
        base = Engine(doc)
        updater = DocumentUpdater(doc)
        updater.delete_subtree(doc.elements_by_tag("b")[0])
        fork = updater.doc
        updater.insert_subtree(fork.elements_by_tag("c")[0], parse("<y/>").root)
        engine = Engine(fork)
        for strategy in ("naive", "pipelined", "twigstack"):
            result = engine.query("//c//y", strategy=strategy)
            assert len(result) == 2, strategy
            assert len(base.query("//c//y", strategy=strategy)) == 1


class TestFork:
    def test_base_nodes_resolve_only_before_the_first_operation(self, doc):
        updater = DocumentUpdater(doc)
        b = doc.elements_by_tag("b")[0]
        assert updater.resolve(b) is updater.doc.elements_by_tag("b")[0]
        updater.delete_subtree(doc.elements_by_tag("a")[0])
        # The fork's arena is renumbered now: a base node is refused.
        with pytest.raises(UpdateError, match="different document"):
            updater.delete_subtree(b)
        assert len(updater.reports) == 1
        assert serialize(doc.root) == BASE


class TestIndexInvalidation:
    def test_registered_index_invalidated(self, doc):
        doc.derived.index.build()
        updater = DocumentUpdater(doc)
        fork = updater.doc
        index = fork.derived.index         # carried onto the clones
        assert index.cardinality("y") == 1
        report = updater.insert_subtree(fork.elements_by_tag("c")[0],
                                        parse("<y/>").root)
        assert report.indexes_invalidated == 1
        # The fork's index is a new one, its postings maintained by the
        # update; an update that finds none built maintains none.  The
        # base keeps its own.
        assert fork.derived.index is not index
        assert fork.derived.index.cardinality("y") == 2
        assert doc.derived.index.cardinality("y") == 1
        fork.drop_derived()
        report = updater.delete_subtree(fork.root.children[-1])
        assert report.indexes_invalidated == 0

    def test_stale_index_is_the_update_problem(self, doc):
        """The Section-2.1 argument: an unregistered (stale) index keeps
        nodes with outdated labels — exactly why join-based approaches
        must pay maintenance costs."""
        updater = DocumentUpdater(doc)
        fork = updater.doc
        index = TagIndex(fork)
        stale_nodes = index.nodes("y")
        start = stale_nodes[0].start
        updater.insert_subtree(fork.root, parse("<q/>").root, position=0)
        fresh = fork.elements_by_tag("y")
        assert stale_nodes[0] is fresh[0]
        assert fresh[0].start != start
        # The node object survived but its labels moved: a join using
        # the stale list's cached order could now be wrong.
        assert index.built      # asserting staleness itself


# ----------------------------------------------------------------------
# Patched == rebuilt: the labels an update shifts and the derived state
# it carries forward, against independent oracles after every operation.
# ----------------------------------------------------------------------

def reference_relabel(doc):
    """The whole-document relabel: every nid, region and level from one
    pre-order walk, then every end from a reverse one.  Returns how many
    of the document's own nodes changed a label (an inserted copy has no
    old labels to compare)."""
    relabeled = 0
    nodes, kept = [], []
    stack = [doc.nodes[0]]
    stack[0].level = 0
    while stack:
        node = stack.pop()
        nid = len(nodes)
        start = 2 * nid - node.level
        ours = node.doc is doc
        same = ours and node.nid == nid and node.start == start
        if ours and not same:
            relabeled += 1
        kept.append(same)
        node.nid, node.doc, node.start = nid, doc, start
        node._string_value = None
        nodes.append(node)
        for child in node.children:
            child.level = node.level + 1
        stack.extend(reversed(node.children))
    for node, same in zip(reversed(nodes), reversed(kept)):
        children = node.children
        end = children[-1].end + 1 if children else node.start + 1
        if same and node.end != end:
            relabeled += 1
        node.end = end
    doc.nodes = nodes
    doc.root = next((c for c in nodes[0].children if c.kind == ELEMENT),
                    None)
    return relabeled


def fragment(text):
    """A subtree to insert: an element, or a bare text node."""
    if text.startswith("<"):
        return parse(text).root
    return parse(f"<w>{text}</w>").root.children[0]


def apply(updater, doc, op):
    """One operation through the updater under test."""
    if op[0] == "delete":
        return updater.delete_subtree(doc.nodes[op[1]])
    _, nid, text, position = op
    return updater.insert_subtree(doc.nodes[nid], fragment(text), position)


def apply_reference(ref, op):
    """The same operation on a twin document, splice then full relabel:
    ``(nodes_added, nodes_removed, nodes_relabeled)``."""
    if op[0] == "delete":
        node = ref.nodes[op[1]]
        node.parent.children.remove(node)
        return 0, node.subtree_size(), reference_relabel(ref)
    _, nid, text, position = op
    parent = ref.nodes[nid]
    holder = DocumentBuilder()
    holder.start_element("")
    holder.append(fragment(text))
    holder.end_element()
    (copied,) = holder.finish().nodes[1].children
    index = len(parent.children) if position is None else position
    parent.children.insert(index, copied)
    copied.parent = parent
    return copied.subtree_size(), 0, reference_relabel(ref)


def labels(doc):
    return [(n.nid, n.kind, n.tag, n.text, n.attrs, n.start, n.end, n.level,
             n.parent.nid if n.parent is not None else None)
            for n in doc.nodes]


def postings(index):
    return {tag: index.nodes(tag) for tag in index.tags()}


def assert_matches_rebuild(doc, ref):
    assert labels(doc) == labels(ref)
    assert all(node.doc is doc for node in doc.nodes)
    assert doc.root is doc.nodes[0].children[0]
    for node, twin in zip(doc.nodes, ref.nodes):   # no stale cached value
        if node._string_value is not None:
            assert node._string_value == twin.string_value()
    summary, rebuilt = doc.derived.summary, build_summary(doc)
    assert summary.paths.keys() == rebuilt.paths.keys()
    for path, info in summary.paths.items():
        assert vars(info) == vars(rebuilt.paths[path]), path
    assert summary.truncated == rebuilt.truncated
    assert summary.stats == rebuilt.stats
    assert doc.derived.stats is summary.stats
    assert (summary.depth_sum, summary.subtree_totals) == \
        (rebuilt.depth_sum, rebuilt.subtree_totals)
    assert (summary.parent_labels, summary.ancestor_labels,
            summary.label_attributes) == (rebuilt.parent_labels,
                                          rebuilt.ancestor_labels,
                                          rebuilt.label_attributes)
    assert summary.fingerprint() == rebuilt.fingerprint()
    maintained = postings(doc.derived.index)
    fresh = postings(TagIndex(doc).build())
    assert maintained.keys() == fresh.keys()
    for tag, nodes in maintained.items():
        assert len(nodes) == len(fresh[tag]), tag
        assert all(a is b for a, b in zip(nodes, fresh[tag])), tag
    assert [n.string_value() for n in doc.nodes] == \
        [n.string_value() for n in ref.nodes]
    # The patched column, or the one the next reader builds after a
    # splice dropped it, is a fresh build; each slice is what the raw
    # writer gives for the rebuilt twin (which has no derived state).
    assert doc.derived.xml == text_column(doc.nodes)
    assert ref._derived is None
    assert [serialize(n) for n in doc.nodes] == \
        [serialize(n) for n in ref.nodes]


def check(updater, doc, ref, op, carried=("summary", "postings")):
    """Apply ``op`` to ``doc`` and its twin; assert which derived state
    exists without a build (``carried``; the serialized-text column is
    carried unless the parent changes form or is the document node),
    then compare everything."""
    before = doc._derived
    maintained = int(before is not None and before.index.built)
    parent = (doc.nodes[op[1]].parent if op[0] == "delete"
              else doc.nodes[op[1]])
    reforms = len(parent.children) == int(op[0] == "delete")
    patched = (before is not None and before._xml is not None
               and parent.kind == ELEMENT and not reforms)
    report = apply(updater, doc, op)
    added, removed, relabeled = apply_reference(ref, op)
    assert (report.nodes_added, report.nodes_removed,
            report.nodes_relabeled, report.indexes_invalidated) == \
        (added, removed, relabeled, maintained)
    state = doc._derived
    assert ("summary" in carried) == (
        state is not None and state._dataguide is not None)
    assert ("postings" in carried) == (
        state is not None and state.index.built)
    assert patched == (state is not None and state._xml is not None)
    assert_matches_rebuild(doc, ref)
    return report


def warm(doc):
    doc.derived.summary
    doc.derived.index.build()
    doc.derived.xml


LIBRARY = ("<lib>" + "".join(
    f'<shelf g="{s}">' + "".join(
        f'<book id="b{s}{i}"><title>t{s}{i}</title><price>{i}</price></book>'
        for i in range(3)) + "</shelf>" for s in range(3)) + "</lib>")
FRAGMENTS = ('<book id="n"><title>new</title><price>5</price></book>',
             '<note k="1"><note>deep</note></note>',
             "<fresh/>",
             '<a><a><b x="1">t</b></a></a>',
             "loose text")


@cache
def shape_xml(shape):
    """A library, a recursive (d1) and a deep (d4) document."""
    if shape == "library":
        return LIBRARY
    return serialize(DATASETS[shape].generate(scale=0.005).root)


def draw_op(data, doc):
    deletable = [n for n in doc.nodes[1:] if n.parent.kind == ELEMENT]
    if deletable and data.draw(st.booleans(), label="delete"):
        return ("delete", data.draw(st.sampled_from(deletable)).nid)
    parent = data.draw(st.sampled_from(
        [n for n in doc.nodes if n.kind == ELEMENT]))
    position = data.draw(st.one_of(
        st.none(), st.integers(0, len(parent.children))), label="position")
    return ("insert", parent.nid, data.draw(st.sampled_from(FRAGMENTS)),
            position)


GENERATED = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestPatchedEqualsRebuilt:
    @pytest.mark.parametrize("shape", ["library", "d1", "d4"])
    @GENERATED
    @given(data=st.data())
    def test_generated_in_place(self, shape, data):
        # One batch on a plain document: every operation edits the
        # updater's fork; the base keeps every label and its state.
        base, ref = parse(shape_xml(shape)), parse(shape_xml(shape))
        warm(base)
        frozen = labels(base), base.derived.summary.fingerprint()
        updater = DocumentUpdater(base)
        doc = updater.doc
        for _ in range(data.draw(st.integers(1, 6), label="operations")):
            check(updater, doc, ref, draw_op(data, doc))
        assert (labels(base), base.derived.summary.fingerprint()) == frozen

    @pytest.mark.parametrize("shape", ["library", "d1", "d4"])
    @GENERATED
    @given(data=st.data())
    def test_generated_snapshot_batches(self, shape, data):
        db = Database(shape_xml(shape))
        ref = parse(shape_xml(shape))
        warm(db.current().doc)
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            base = db.current().doc
            frozen = (labels(base), [n._string_value for n in base.nodes],
                      base.derived.summary.fingerprint(),
                      postings(base.derived.index))
            batch = db.updater()
            # The fork starts with the base's state: the same summary,
            # the postings on its clones, every cached string value.
            assert batch.doc._derived._dataguide is base.derived.summary
            assert batch.doc._derived._xml is base.derived.xml
            assert all(n.doc is batch.doc for nodes in
                       postings(batch.doc._derived.index).values()
                       for n in nodes)
            assert [n._string_value for n in batch.doc.nodes] == frozen[1]
            for _ in range(data.draw(st.integers(1, 3), label="ops")):
                check(batch, batch.doc, ref, draw_op(data, batch.doc))
                assert (labels(base), [n._string_value for n in base.nodes],
                        base.derived.summary.fingerprint(),
                        postings(base.derived.index)) == frozen
            batch.commit()
            assert base._derived is None            # retired

    @pytest.mark.parametrize("position", [0, 1, None])
    def test_insert_at_start_middle_and_end(self, position):
        base, ref = parse(LIBRARY), parse(LIBRARY)
        warm(base)
        updater = DocumentUpdater(base)
        doc = updater.doc
        shelf = doc.root.children[1]
        report = check(updater, doc, ref,
                       ("insert", shelf.nid, FRAGMENTS[0], position))
        assert report.nodes_added == 5

    def test_an_emptied_path_takes_its_attribute_and_child_label(self):
        xml = ('<lib><shelf><book x="1"><note k="1">n</note></book>'
               '<book y="2"/></shelf></lib>')
        base, ref = parse(xml), parse(xml)
        warm(base)
        updater = DocumentUpdater(base)
        doc = updater.doc
        book = ("lib", "shelf", "book")
        check(updater, doc, ref, ("delete", doc.elements_by_tag("note")[0].nid))
        summary = doc.derived.summary
        assert book + ("note",) not in summary.paths
        assert summary.paths[book].children == set()
        assert not summary.label_occurs("note")
        assert not summary.attr_occurs("note", "k")
        # The path stays, one of its attributes goes with its only carrier.
        check(updater, doc, ref, ("delete", doc.elements_by_tag("book")[0].nid))
        assert doc.derived.summary.paths[book].attributes == {"y"}
        assert doc.derived.summary.paths[book].attr_counts == {"y": 1}
        assert not doc.derived.summary.attr_occurs("book", "x")

    def test_recursion_degree_and_max_depth_fall(self):
        xml = "<r><a><a><a><b/></a></a></a><b/></r>"
        base, ref = parse(xml), parse(xml)
        warm(base)
        updater = DocumentUpdater(base)
        doc = updater.doc
        stats = doc.derived.stats
        assert (stats.recursion_degree, stats.max_depth) == (3, 5)
        check(updater, doc, ref, ("delete", doc.root.children[0].nid))
        stats = doc.derived.stats
        assert (stats.recursion_degree, stats.max_depth, stats.recursive) \
            == (1, 2, False)
        assert base.derived.stats.recursion_degree == 3

    def test_a_truncated_summary_is_rebuilt_by_the_next_reader(self):
        # MAX_PATHS distinct paths: the table is full, not truncated.
        xml = "<r>" + "".join(f"<t{i}/>" for i in range(MAX_PATHS - 1)) \
            + "</r>"
        base, ref = parse(xml), parse(xml)
        warm(base)
        assert not base.derived.summary.truncated
        updater = DocumentUpdater(base)
        doc = updater.doc
        for _ in range(2):   # past the cap, then from a truncated table
            check(updater, doc, ref, ("insert", doc.root.nid,
                                      "<fresh><more/></fresh>", 0),
                  carried=("postings",))
            assert doc.derived.summary.truncated

    def test_the_column_is_rebuilt_where_the_parent_changes_form(self):
        xml = '<r><a k="&amp;"/><b><c>x</c></b><d>t<e/>u</d></r>'
        base, ref = parse(xml), parse(xml)
        warm(base)
        updater = DocumentUpdater(base)
        doc = updater.doc
        a, b, d = doc.root.children
        # <a/> becomes <a>…</a>: nothing to patch, the reader builds.
        check(updater, doc, ref, ("insert", a.nid, FRAGMENTS[1], None))
        # Beside a sibling, first and last: patched.
        check(updater, doc, ref, ("insert", b.nid, "<f>&lt;</f>", 0))
        check(updater, doc, ref, ("insert", d.nid, "loose text", None))
        check(updater, doc, ref, ("delete", d.children[1].nid))
        # b's two children go: the first delete is patched, the second
        # empties b (<b></b> would be <b/>), so the reader rebuilds.
        for _ in range(2):
            check(updater, doc, ref, ("delete", b.children[-1].nid))
        assert serialize(b) == "<b/>"

    def test_a_splice_under_the_document_node_carries_nothing(self):
        base, ref = parse("<r><a/></r>"), parse("<r><a/></r>")
        warm(base)
        updater = DocumentUpdater(base)
        doc = updater.doc
        check(updater, doc, ref, ("insert", 0, "loose text", None),
              carried=())
        warm(doc)
        check(updater, doc, ref, ("delete", doc.nodes[-1].nid), carried=())
        empty = Document()
        warm(empty)
        updater = DocumentUpdater(empty)
        rootless = updater.doc
        report = updater.insert_subtree(
            rootless.document_node, parse("<r><a/></r>").root)
        assert report.indexes_invalidated == 1 and rootless._derived is None
        assert empty.root is None
        assert rootless.root.tag == "r"
        # Equality ignores the memoised digest.
        assert rootless.derived.summary.fingerprint()
        assert rootless.derived.summary == build_summary(rootless)
