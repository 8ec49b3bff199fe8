"""Tests for document updates and the index-invalidation contract."""

import pytest

from repro.engine import Engine
from repro.xmlkit import TagIndex, parse, serialize
from repro.xmlkit.update import DocumentUpdater, UpdateError


@pytest.fixture
def doc():
    return parse("<r><a><x>1</x></a><b/><c><y/></c></r>")


class TestInsert:
    def test_append_child(self, doc):
        updater = DocumentUpdater(doc)
        fragment = parse("<new><leaf/></new>").root
        report = updater.insert_subtree(doc.elements_by_tag("b")[0], fragment)
        assert report.nodes_added == 2
        assert serialize(doc.root) == \
            "<r><a><x>1</x></a><b><new><leaf/></new></b><c><y/></c></r>"

    def test_insert_at_position(self, doc):
        updater = DocumentUpdater(doc)
        fragment = parse("<z/>").root
        updater.insert_subtree(doc.root, fragment, position=0)
        assert [c.tag for c in doc.root.children] == ["z", "a", "b", "c"]

    def test_labels_valid_after_insert(self, doc):
        updater = DocumentUpdater(doc)
        updater.insert_subtree(doc.elements_by_tag("a")[0], parse("<k/>").root)
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

    def test_reject_foreign_parent(self, doc):
        other = parse("<o/>")
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.insert_subtree(other.root, parse("<k/>").root)

    def test_reject_second_root(self, doc):
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.insert_subtree(doc.document_node, parse("<k/>").root)

    def test_reject_bad_position(self, doc):
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.insert_subtree(doc.root, parse("<k/>").root, position=99)


class TestDelete:
    def test_delete_middle_subtree(self, doc):
        updater = DocumentUpdater(doc)
        report = updater.delete_subtree(doc.elements_by_tag("a")[0])
        assert report.nodes_removed == 3  # a, x, text
        assert serialize(doc.root) == "<r><b/><c><y/></c></r>"
        nids = [n.nid for n in doc.nodes]
        assert nids == list(range(len(doc.nodes)))

    def test_cannot_delete_root(self, doc):
        updater = DocumentUpdater(doc)
        with pytest.raises(UpdateError):
            updater.delete_subtree(doc.root)

    def test_queries_correct_after_update(self, doc):
        updater = DocumentUpdater(doc)
        updater.delete_subtree(doc.elements_by_tag("b")[0])
        updater.insert_subtree(doc.elements_by_tag("c")[0], parse("<y/>").root)
        engine = Engine(doc)
        for strategy in ("naive", "pipelined", "twigstack"):
            result = engine.query("//c//y", strategy=strategy)
            assert len(result) == 2, strategy


class TestIndexInvalidation:
    def test_registered_index_invalidated(self, doc):
        index = doc.derived.index
        assert index.cardinality("y") == 1
        updater = DocumentUpdater(doc)
        report = updater.insert_subtree(doc.elements_by_tag("c")[0],
                                        parse("<y/>").root)
        assert report.indexes_invalidated == 1
        # The document's index is a new one, rebuilt on demand with
        # fresh content; an update that finds none built drops none.
        assert doc.derived.index is not index
        assert doc.derived.index.cardinality("y") == 2
        doc.drop_derived()
        report = updater.delete_subtree(doc.root.children[-1])
        assert report.indexes_invalidated == 0

    def test_stale_index_is_the_update_problem(self, doc):
        """The Section-2.1 argument: an unregistered (stale) index keeps
        nodes with outdated labels — exactly why join-based approaches
        must pay maintenance costs."""
        index = TagIndex(doc)
        stale_nodes = index.nodes("y")
        DocumentUpdater(doc).insert_subtree(doc.root, parse("<q/>").root,
                                            position=0)
        fresh = doc.elements_by_tag("y")
        assert stale_nodes[0] is fresh[0]
        # The node object survived but its labels moved: a join using
        # the stale list's cached order could now be wrong.
        assert index.built      # asserting staleness itself
