"""Stale-fingerprint regression: updates must invalidate linted plans.

A plan linted against one document shape is only sound for that shape.
These tests pin the invalidation chain end to end: an update batch
recomputes `DocumentStats` *and* the structural-summary fingerprint, so
no plan-cache key built against pre-update structure can ever serve the
post-update document — the scenario where a label was absent (query
rewritten to a static-empty plan) and then inserted is the sharpest
version, because serving the stale plan would silently drop answers.
"""

import os

from repro.engine import Engine
from repro.engine.database import Database
from repro.serve import Catalog, QueryService
from repro.xmlkit.parser import parse
from tests.conftest import SMALL_BIB


class TestEngineInvalidation:
    def test_static_empty_plan_dropped_after_insert(self):
        db = Database.from_xml(SMALL_BIB)
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
        db = Database.from_xml(SMALL_BIB)
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
        # The summary digest is the fingerprint's last component: the
        # plan-cache key changes even if coarse stats were to coincide.
        assert after_fp[-1] == after_summary

    def test_delete_also_invalidates(self, small_bib):
        engine = Engine(small_bib)
        before = engine.summary.fingerprint()
        assert len(engine.query("//price")) == 3
        from repro.xmlkit.update import DocumentUpdater

        # No listener: the updater's drop of the derived state alone
        # moves the summary digest, which keys the stale plan out.
        updater = DocumentUpdater(small_bib)
        for node in list(small_bib.elements_by_tag("price")):
            updater.delete_subtree(node)
        assert engine.summary.fingerprint() != before
        assert engine.query("//price").serialize() == ""
        assert "static-empty" in engine.last_plan


class TestSnapshotInvalidation:
    def test_new_snapshot_gets_fresh_summary(self):
        catalog = Catalog()
        snap = catalog.register("lib", SMALL_BIB)
        engine = catalog.engine_for(snap)
        old_summary = engine.summary

        with catalog.updater("lib") as up:
            up.insert_subtree(up.doc.root,
                              parse("<appendix>new</appendix>").root)

        current = catalog.current("lib")
        assert current.snapshot_id != snap.snapshot_id
        fresh = catalog.engine_for(current)
        assert fresh.summary.fingerprint() != old_summary.fingerprint()

    def test_service_sees_inserted_label_after_update(self):
        service = QueryService(SMALL_BIB, workers=1,
                               default_document="lib")
        try:
            # Prime the static-empty plan (and the result cache) on the
            # pre-update snapshot.
            assert service.query("//appendix", doc="lib").serialize() == ""
            assert service.query("//appendix", doc="lib").serialize() == ""

            with service.updater("lib") as up:
                up.insert_subtree(up.doc.root,
                                  parse("<appendix>new</appendix>").root)

            result = service.query("//appendix", doc="lib")
            assert len(result) == 1
        finally:
            service.close()

    def test_retire_drops_cached_summary(self):
        """A retired snapshot's engine, derived state and arena file are
        gone; a pinned one keeps all three until its last unpin."""
        catalog = Catalog()
        snap = catalog.register("lib", SMALL_BIB)
        entry = catalog._entries["lib"]

        def warm(snapshot):
            catalog.engine_for(snapshot).stats_fingerprint()
            derived = snapshot.doc.derived
            return derived, derived.summary, derived.arena_file()

        derived, summary, arena = warm(snap)
        assert snap.snapshot_id in entry.engines

        with catalog.updater("lib") as up:
            up.insert_subtree(up.doc.root, parse("<x/>").root)

        # The base snapshot is unpinned: retired on publish.
        assert snap.snapshot_id not in entry.engines
        assert snap.doc._derived is None and not os.path.exists(arena)
        assert snap.doc.derived is not derived        # nothing survived

        pinned = catalog.pin("lib")
        derived, summary, arena = warm(pinned)
        with catalog.updater("lib") as up:
            up.insert_subtree(up.doc.root, parse("<y/>").root)
        assert pinned.snapshot_id in entry.engines
        assert pinned.doc.derived is derived and derived.summary is summary
        assert os.path.exists(arena)
        catalog.unpin(pinned)
        assert pinned.snapshot_id not in entry.engines
        assert pinned.doc._derived is None and not os.path.exists(arena)
        catalog.current("lib").doc.drop_derived()
