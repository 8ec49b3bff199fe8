"""Snapshot layer: fork fidelity, database versioning, pin/retire."""

import pytest

from repro.engine.database import Database
from repro.errors import UsageError
from repro.serve import fork_document
from repro.serve.snapshot import SnapshotUpdater
from repro.xmlkit.update import DocumentUpdater
from repro.xmlkit.parser import parse
from repro.xmlkit.writer import serialize
from repro.xmlkit.tree import DocumentBuilder

LIBRARY = """
<library>
  <shelf genre="systems">
    <book year="1999"><author>Stevens</author><title>TCP/IP</title>
      <price>65.0</price></book>
    <book year="2004"><author>Tanenbaum</author><title>Networks</title>
      <price>55.0</price></book>
  </shelf>
  <shelf genre="theory">
    <book year="2009"><author>Cormen</author><title>CLRS</title>
      <price>80.0</price></book>
  </shelf>
</library>
"""


def elems(node):
    """Element children (the corpus has whitespace text nodes)."""
    return [c for c in node.children if c.tag is not None]


def live_ids(db):
    """Snapshot ids that are current or pinned."""
    return {db.current().snapshot_id, *db._pins}


def subtree(tag: str, **children) -> object:
    builder = DocumentBuilder()
    builder.start_element(tag)
    for name, text in children.items():
        builder.element(name, text)
    builder.end_element()
    return builder.finish().root


class TestForkDocument:
    def test_fork_serializes_identically(self):
        doc = parse(LIBRARY)
        fork = fork_document(doc)
        assert serialize(fork.document_node) == serialize(doc.document_node)

    def test_fork_preserves_labels_verbatim(self):
        doc = parse(LIBRARY)
        fork = fork_document(doc)
        assert len(fork.nodes) == len(doc.nodes)
        for src, clone in zip(doc.nodes, fork.nodes):
            assert (clone.nid, clone.kind, clone.tag, clone.text) \
                == (src.nid, src.kind, src.tag, src.text)
            assert (clone.start, clone.end, clone.level) \
                == (src.start, src.end, src.level)
            assert clone.doc is fork

    def test_fork_shares_no_nodes(self):
        doc = parse(LIBRARY)
        fork = fork_document(doc)
        originals = {id(n) for n in doc.nodes}
        assert all(id(n) not in originals for n in fork.nodes)

    def test_mutating_fork_leaves_original_alone(self):
        doc = parse(LIBRARY)
        before = serialize(doc.document_node)
        updater = DocumentUpdater(doc)      # forks at construction
        fork = updater.doc
        assert serialize(fork.document_node) == before
        updater.delete_subtree(elems(fork.root)[0])
        assert serialize(doc.document_node) == before
        assert serialize(fork.document_node) != before


class TestCatalogVersioning:
    def test_register_and_query_current(self):
        db = Database(LIBRARY)
        snap = db.current()
        assert snap.snapshot_id == 1
        assert db.current() is snap
        assert len(db.engine_for(snap).query("//book")) == 3
        doc = parse(LIBRARY)            # a parsed tree is taken, not forked
        assert Database(doc).current().doc is doc

    def test_commit_publishes_next_snapshot(self):
        db = Database(LIBRARY)
        with db.updater() as up:
            shelf = elems(up.doc.root)[0]
            up.insert_subtree(shelf, subtree("book", author="Knuth",
                                             title="TAOCP"))
        current = db.current()
        assert current.snapshot_id == 2
        engine = db.engine_for(current)
        assert len(engine.query("//book")) == 4

    def test_abort_discards_the_fork(self):
        db = Database(LIBRARY)
        up = db.updater()
        up.delete_subtree(elems(up.doc.root)[0])
        up.abort()
        assert db.current().snapshot_id == 1

    def test_exception_inside_with_aborts(self):
        db = Database(LIBRARY)
        with pytest.raises(RuntimeError, match="boom"):
            with db.updater() as up:
                up.delete_subtree(elems(up.doc.root)[0])
                raise RuntimeError("boom")
        assert db.current().snapshot_id == 1

    def test_double_commit_refused(self):
        db = Database(LIBRARY)
        up = db.updater()
        up.commit()
        with pytest.raises(UsageError, match="already committed"):
            up.commit()
        with pytest.raises(UsageError, match="already committed"):
            up.abort()
        aborted = db.updater()
        aborted.abort()
        for finish in (aborted.abort, aborted.commit):
            with pytest.raises(UsageError, match="or aborted"):
                finish()
        assert db.current().snapshot_id == 2

    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_a_finished_batch_refuses_edits(self, finish):
        # A committed batch's fork *is* the published snapshot: an edit
        # through it would change that version under its id, and the
        # served answer (result-cached by id) would part from the direct
        # one.  An aborted batch has nothing left to edit.
        with Database("<r><t>a</t><t>b</t></r>") as db:
            service = db.serve(workers=1)
            up = service.updater()
            up.insert_subtree(up.doc.root, parse("<t>c</t>").root)
            getattr(up, finish)()
            snapshot = db.current()
            text = serialize(snapshot.doc.document_node)
            served = service.query("//t")
            with pytest.raises(UsageError, match="already committed"):
                up.insert_subtree(up.doc.root, parse("<t>d</t>").root)
            with pytest.raises(UsageError, match="already committed"):
                up.delete_subtree(up.doc.root.children[0])
            assert db.current() is snapshot
            assert serialize(snapshot.doc.document_node) == text
            again = service.query("//t")
            assert again.cached and again.snapshot_id == served.snapshot_id
            assert again.serialize() == served.serialize() == \
                db.query("//t").serialize()
            assert served.serialize().count("<t>") == \
                (3 if finish == "commit" else 2)



class TestPinning:
    def test_pinned_snapshot_survives_publish(self):
        db = Database(LIBRARY)
        pinned = db.pin()
        with db.updater() as up:
            up.delete_subtree(elems(up.doc.root)[0])
        # The pinned version still answers with the old content.
        engine = db.engine_for(pinned)
        assert len(engine.query("//book")) == 3
        assert live_ids(db) == {1, 2}
        db.unpin(pinned)
        assert live_ids(db) == {2}
        with pytest.raises(UsageError, match="snapshot 1 has been retired"):
            engine.query("//book")

    def test_unpinned_superseded_snapshot_retires_on_publish(self):
        db = Database(LIBRARY)
        with db.updater():
            pass
        assert live_ids(db) == {2}
        assert db._engines == {}

    def test_engine_for_dropped_snapshot_refused(self):
        db = Database(LIBRARY)
        old = db.current()
        with db.updater():
            pass
        with pytest.raises(UsageError, match="snapshot 1 has been retired"):
            db.engine_for(old)

    def test_unpin_without_pin_refused(self):
        db = Database(LIBRARY)
        snap = db.current()
        with pytest.raises(UsageError, match="not pinned"):
            db.unpin(snap)

    def test_retire_listener_fires_outside_lock(self):
        db = Database(LIBRARY)
        retired = []
        db.on_retire(
            lambda s: retired.append((s.snapshot_id,
                                      db.current().snapshot_id)))
        with db.updater():
            pass
        assert retired == [(1, 2)]

    def test_resolve_maps_base_nodes_into_the_fork(self):
        db = Database(LIBRARY)
        base = db.current()
        first_book = elems(elems(base.doc.root)[0])[0]
        up = db.updater()
        assert isinstance(up, SnapshotUpdater)
        up.delete_subtree(first_book)      # base node, resolved into fork
        snap = up.commit()
        engine = db.engine_for(snap)
        assert len(engine.query("//book")) == 2


class TestRetiredEngine:
    def test_every_call_on_a_retired_engine_refuses(self):
        with Database(LIBRARY) as db:
            engine = db.engine
            prepared = engine.prepare("//book/title")
            with db.updater() as up:
                up.insert_subtree(up.doc.root, subtree("shelf"))
            calls = {
                "query": lambda: engine.query("//book"),
                "query again": lambda: engine.query("//book"),
                "prepare": lambda: engine.prepare("//book"),
                "explain": lambda: engine.explain("//book"),
                "explain_analyze": lambda: engine.explain_analyze("//book"),
                "execute": prepared.execute,
            }
            for call in calls.values():
                with pytest.raises(UsageError,
                                   match="snapshot 1 has been retired"):
                    call()
            # Nothing rebuilt the retired version's derived state.
            assert engine.doc._derived is None
            assert len(db.engine.query("//book")) == 3


class TestSnapshotPlanCache:
    def test_versions_share_one_cache_without_aliasing(self):
        db = Database(LIBRARY)
        pinned = db.pin()
        old_engine = db.engine_for(pinned)
        old_engine.query("//book/title")
        with db.updater() as up:
            up.delete_subtree(elems(up.doc.root)[0])
        new_engine = db.engine_for(db.current())
        cache = db.plan_cache
        assert new_engine.plan_cache is cache
        assert old_engine.plan_cache is cache
        # Different shape => different key => both results correct.
        assert len(old_engine.query("//book/title")) == 3
        assert len(new_engine.query("//book/title")) == 1
        assert len(cache) == 2
        db.unpin(pinned)

    def test_retirement_keeps_the_shapes_plans(self):
        db = Database(LIBRARY)
        pinned = db.pin()
        db.engine_for(pinned).query("//book/title")
        cache = db.plan_cache
        assert len(cache) == 1
        with db.updater():
            pass
        db.unpin(pinned)          # last unpin retires snapshot 1
        assert len(cache) == 1
        engine = db.engine_for(db.current())
        served = engine.query("//book/title", trace=True)
        assert served.trace.root.attrs["plan-cache"] == "hit"
        assert len(served) == 3

    def test_plans_are_keyed_by_shape_not_snapshot(self):
        db = Database(LIBRARY)
        snap = db.current()
        engine = db.engine_for(snap)
        engine.query("//book/title")
        cache = db.plan_cache
        [key] = list(cache._entries)
        assert key[-1] == (snap.doc.derived.summary.fingerprint(),)
        assert not hasattr(cache.get(key), "snapshot_id")
