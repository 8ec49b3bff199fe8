"""Plans follow the document's shape: updates re-plan exactly when the
shape changes.

A plan linted against one document shape is only sound for that shape.
These tests pin the invalidation chain end to end: an update batch
recomputes `DocumentStats` *and* the structural-summary fingerprint, so
no plan-cache key built against pre-update structure can ever serve the
post-update document — the scenario where a label was absent (query
rewritten to a static-empty plan) and then inserted is the sharpest
version, because serving the stale plan would silently drop answers.
The other half of the contract: a commit that keeps the shape keeps
every plan, because the key carries the shape's digest and no version.
"""

import os

import pytest

from repro.engine import Engine
from repro.engine.database import Database
from repro.errors import CompileError
from repro.serve import QueryService
from repro.strategy import STRATEGIES
from repro.xmlkit.parser import parse
from tests.conftest import SMALL_BIB

QUERY = "for $b in //book where $b/price < 50 return $b/title"
#: Same shape as the ``Economics`` book: one attribute, a title and a
#: price, no whitespace between them.
FRESH = '<book year="2001"><title>Fresh</title><price>12.50</price></book>'


def commit_pair(db: Database, kind: str) -> None:
    """Two commits that leave the document's shape as it was: insert a
    book, then delete it again (``round-trip``) or delete the
    same-shaped ``Economics`` book instead (``swap``)."""
    with db.updater() as up:
        up.insert_subtree(up.doc.root, parse(FRESH).root)
    victim = "Fresh" if kind == "round-trip" else "Economics"
    with db.updater() as up:
        [book] = [b for b in up.doc.elements_by_tag("book")
                  if b.children[0].string_value() == victim]
        up.delete_subtree(book)


def plan_cache_status(result) -> str:
    return result.trace.root.attrs["plan-cache"]


class TestEngineInvalidation:
    def test_static_empty_plan_dropped_after_insert(self):
        db = Database(SMALL_BIB)
        before = db.query("//appendix")
        assert before.serialize() == ""
        assert "static-empty" in before.plan

        with db.updater() as up:
            up.insert_subtree(
                db.doc.root, parse("<appendix>new</appendix>").root)

        # The commit published a version with its own stats + summary:
        # the stale static-empty plan must not answer the re-query.
        result = db.query("//appendix")
        assert result.string_values() == ["new"]
        assert "static-empty" not in result.plan

    def test_summary_fingerprint_recomputed_after_batch(self):
        db = Database(SMALL_BIB)
        before_fp = db.engine.stats_fingerprint()
        before_summary = db.engine.summary.fingerprint()

        with db.updater() as up:
            up.insert_subtree(up.doc.root,
                              parse("<appendix>a</appendix>").root)
            up.insert_subtree(up.doc.root,
                              parse("<appendix>b</appendix>").root)

        after_fp = db.engine.stats_fingerprint()
        after_summary = db.engine.summary.fingerprint()
        assert after_summary != before_summary
        assert after_fp != before_fp
        # The summary digest is the whole fingerprint: no version rides
        # beside it, and it covers every statistic the optimizer reads.
        assert after_fp == (after_summary,)

    def test_delete_also_invalidates(self, small_bib):
        engine = Engine(small_bib)
        before = engine.summary.fingerprint()
        assert len(engine.query("//price")) == 3
        from repro.xmlkit.update import DocumentUpdater

        # No listener: the updater edits its own fork, whose patched
        # summary digest keys the base's plan out of the shared cache;
        # the base engine keeps its digest, plan and answers.
        updater = DocumentUpdater(small_bib)
        for node in list(updater.doc.elements_by_tag("price")):
            updater.delete_subtree(node)
        assert engine.summary.fingerprint() == before
        assert len(engine.query("//price")) == 3
        fork = Engine(updater.doc, plan_cache=engine.plan_cache)
        assert fork.summary.fingerprint() != before
        result = fork.query("//price", trace=True)
        assert result.trace.root.attrs["plan-cache"] == "miss"
        assert result.serialize() == ""
        assert "static-empty" in result.plan


class TestSnapshotInvalidation:
    def test_new_snapshot_gets_fresh_summary(self):
        db = Database(SMALL_BIB)
        snap = db.current()
        engine = db.engine_for(snap)
        old_summary = engine.summary

        with db.updater() as up:
            up.insert_subtree(up.doc.root,
                              parse("<appendix>new</appendix>").root)

        current = db.current()
        assert current.snapshot_id != snap.snapshot_id
        fresh = db.engine_for(current)
        assert fresh.summary.fingerprint() != old_summary.fingerprint()

    def test_service_sees_inserted_label_after_update(self):
        service = QueryService(SMALL_BIB, workers=1)
        try:
            # Prime the static-empty plan (and the result cache) on the
            # pre-update snapshot.
            assert service.query("//appendix").serialize() == ""

            with service.updater() as up:
                up.insert_subtree(up.doc.root,
                                  parse("<appendix>new</appendix>").root)

            result = service.query("//appendix")
            assert len(result) == 1
        finally:
            service.close()

    def test_retire_drops_cached_summary(self):
        """A retired snapshot's engine, derived state and arena file are
        gone; a pinned one keeps all three until its last unpin."""
        db = Database(SMALL_BIB)
        snap = db.current()

        def warm(snapshot):
            db.engine_for(snapshot).stats_fingerprint()
            derived = snapshot.doc.derived
            return derived, derived.summary, derived.arena_file()

        derived, summary, arena = warm(snap)
        assert snap.snapshot_id in db._engines

        with db.updater() as up:
            up.insert_subtree(up.doc.root, parse("<x/>").root)

        # The base snapshot is unpinned: retired on publish.
        assert snap.snapshot_id not in db._engines
        assert snap.doc._derived is None and not os.path.exists(arena)
        assert snap.doc.derived is not derived        # nothing survived

        pinned = db.pin()
        derived, summary, arena = warm(pinned)
        with db.updater() as up:
            up.insert_subtree(up.doc.root, parse("<y/>").root)
        assert pinned.snapshot_id in db._engines
        assert pinned.doc.derived is derived and derived.summary is summary
        assert os.path.exists(arena)
        db.unpin(pinned)
        assert pinned.snapshot_id not in db._engines
        assert pinned.doc._derived is None and not os.path.exists(arena)
        db.current().doc.drop_derived()


class TestShapePreservingCommits:
    @pytest.mark.parametrize("kind", ["round-trip", "swap"])
    def test_next_read_is_a_plan_cache_hit(self, kind):
        with Database(SMALL_BIB) as db:
            admitted = []
            for strategy, row in STRATEGIES.items():
                if row.family == "internal":        # not a request name
                    continue
                try:
                    db.query(QUERY, strategy=strategy)
                except CompileError:
                    continue
                admitted.append(strategy)
            assert {"auto", "pipelined", "naive"} <= set(admitted)
            before = db.doc.derived.summary.fingerprint()
            commit_pair(db, kind)
            assert db.doc.derived.summary.fingerprint() == before
            naive = db.query(QUERY, strategy="naive").serialize()
            assert ("Fresh" in naive) is (kind == "swap")
            for strategy in admitted:
                result = db.query(QUERY, strategy=strategy, trace=True)
                assert plan_cache_status(result) == "hit", strategy
                assert result.serialize() == naive, strategy

    def test_shape_changing_commit_misses(self):
        with Database(SMALL_BIB) as db:
            db.query(QUERY)
            with db.updater() as up:
                up.insert_subtree(up.doc.root, parse("<appendix/>").root)
            assert plan_cache_status(db.query(QUERY, trace=True)) == "miss"

    def test_prepared_query_keeps_its_plan_and_reads_the_new_version(self):
        with Database(SMALL_BIB) as db:
            prepared = db.prepare(QUERY)
            before = prepared.execute(trace=True)
            assert plan_cache_status(before) == "prepared"
            commit_pair(db, "swap")
            after = prepared.execute(trace=True)
            assert plan_cache_status(after) == "prepared"
            assert "Economics" in before.serialize()
            assert after.serialize() == db.query(
                QUERY, strategy="naive").serialize()
            assert "Fresh" in after.serialize()
            assert "Economics" not in after.serialize()
