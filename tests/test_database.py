"""Tests for the persistent Database facade."""

import gc
import warnings

import pytest

from repro.engine.database import Database
from repro.xmlkit import serialize
from tests.conftest import SMALL_BIB


class TestPersistence:
    def test_save_open_round_trip(self, tmp_path):
        db = Database(SMALL_BIB)
        written = db.save(tmp_path / "lib.btx")
        assert written > 0
        again = Database.open(tmp_path / "lib.btx")
        assert serialize(again.doc.root) == serialize(db.doc.root)

    def test_queries_identical_after_reload(self, tmp_path):
        db = Database(SMALL_BIB)
        db.save(tmp_path / "lib.btx")
        again = Database.open(tmp_path / "lib.btx")
        for query in ("//book[author]/title", "//book[price > 30]//last"):
            assert again.query(query).serialize() == \
                db.query(query).serialize()

    def test_stats_available(self):
        db = Database(SMALL_BIB)
        assert db.doc_stats.n_elements == 17
        assert not db.doc_stats.recursive


class TestUpdateIntegration:
    def test_update_invalidates_index_and_stats_refresh(self):
        """A committed batch is a new version: its fork starts with the
        base's postings and summary, the update maintains them (the
        index it invalidates is the fork's), and no later ``twigstack``
        query builds either."""
        from repro.obs.metrics import REGISTRY
        from repro.xmlkit import parse

        builds = REGISTRY.counter("repro_tag_index_builds_total", "")
        db = Database(SMALL_BIB)
        db.engine.index.build()
        before = len(db.query("//book", strategy="twigstack"))
        built = builds.value()
        with db.updater() as up:
            report = up.insert_subtree(
                db.doc.root, parse("<book><title>new</title></book>").root)
        assert report.indexes_invalidated == 1
        assert db.doc._derived._dataguide is not None
        for _ in range(2):
            assert len(db.query("//book", strategy="twigstack")) == before + 1
        assert builds.value() == built
        assert db.doc_stats is db.doc.derived.summary.stats

    def test_stats_follow_a_committed_update(self):
        from repro.xmlkit import parse

        db = Database("<r><a/></r>")
        assert not db.doc_stats.recursive
        with db.updater() as up:
            up.insert_subtree(db.doc.elements_by_tag("a")[0],
                              parse("<a/>").root)
        assert db.doc_stats.recursive  # a within a now
        # the optimizer reads the new version's stats
        result = db.query("for $x in //a, $y in $x//a return $y")
        assert "stack" in result.plan or "twigstack" in result.plan

    def test_an_unwired_update_refreshes_everything(self):
        """Regression: an updater the database never handed out leaves
        the database's version alone — ``DocumentUpdater`` edits its own
        fork — while an engine over that fork sees the new shape: its
        fingerprint, structural summary and plan key all differ, so the
        QL001 static-empty plan cached for ``//magazine`` does not
        answer there, even from the shared plan cache."""
        from repro.engine import Engine
        from repro.xmlkit import parse
        from repro.xmlkit.update import DocumentUpdater

        db = Database(SMALL_BIB)
        result = db.query("//magazine")
        assert len(result) == 0
        assert "static-empty" in result.plan
        before = db.engine.stats_fingerprint()
        updater = DocumentUpdater(db.doc)
        updater.insert_subtree(
            db.doc.root, parse("<magazine><title>m</title></magazine>").root)
        assert db.doc_stats.n_elements == 17
        assert db.engine.stats_fingerprint() == before
        again = db.query("//magazine", trace=True)
        assert len(again) == 0 and again.trace.root.attrs["plan-cache"] == "hit"
        fork = Engine(updater.doc, plan_cache=db.plan_cache)
        assert fork.stats.n_elements == 19
        assert fork.stats_fingerprint() != before
        moved = fork.query("//magazine", trace=True)
        assert len(moved) == 1 and moved.trace.root.attrs["plan-cache"] == "miss"
        assert len(fork.query("//magazine", strategy="naive")) == 1
        assert len(fork.query("//magazine/title", strategy="twigstack")) == 1

    def test_a_dropped_batch_warns(self):
        """``db.updater().insert_subtree(...)`` without ``with`` (the old
        in-place spelling) builds a batch nobody commits: it warns."""
        from repro.xmlkit import parse

        db = Database(SMALL_BIB)
        with pytest.warns(ResourceWarning, match="update batch on snapshot 1"):
            db.updater().insert_subtree(db.doc.root, parse("<book/>").root)
            gc.collect()
        assert len(db.query("//book")) == 3         # nothing was published
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            db.updater().abort()                    # explicit: no warning
            untouched = db.updater()                # no operation applied
            del untouched
            gc.collect()

    def test_explain_passthrough(self):
        db = Database(SMALL_BIB)
        assert "strategy:" in db.explain("//book//last")


class TestClosedScanPools:
    """``close()`` shuts the database's scan pools for good: a later
    partitioned scan is refused instead of spawning them again."""

    @pytest.mark.parametrize("executor", ["threads:2", "processes:2"])
    def test_parallel_query_after_close_spawns_nothing(self, executor,
                                                      monkeypatch):
        import multiprocessing
        import threading
        from functools import partial

        from repro.engine import executor as executor_module
        from repro.errors import UsageError
        from repro.xmlkit.partition import partition_document

        monkeypatch.setattr(executor_module, "partition_document",
                            partial(partition_document, min_nodes=1))
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        db = Database("<r>" + "<a><b>1</b></a>" * 200 + "</r>")
        text = "//a/b"
        answer = db.query(text, strategy="naive").serialize()
        result = db.query(text, strategy="parallel", executor=executor)
        assert "partition-parallel scan over 2 partitions" in result.plan
        assert result.serialize() == answer
        db.close()
        for _ in range(2):
            with pytest.raises(UsageError, match="scan pools are closed"):
                db.query(text, strategy="parallel", executor=executor)
            db.close()
        # Serial reads keep working on a closed database.
        assert db.query(text).serialize() == answer
        assert set(threading.enumerate()) <= threads
        assert set(multiprocessing.active_children()) <= children
