"""Tests for the persistent Database facade."""


from repro.engine.database import Database
from repro.xmlkit import serialize
from tests.conftest import SMALL_BIB


class TestPersistence:
    def test_save_open_round_trip(self, tmp_path):
        db = Database.from_xml(SMALL_BIB)
        written = db.save(tmp_path / "lib.btx")
        assert written > 0
        again = Database.open(tmp_path / "lib.btx")
        assert serialize(again.doc.root) == serialize(db.doc.root)

    def test_queries_identical_after_reload(self, tmp_path):
        db = Database.from_xml(SMALL_BIB)
        db.save(tmp_path / "lib.btx")
        again = Database.open(tmp_path / "lib.btx")
        for query in ("//book[author]/title", "//book[price > 30]//last"):
            assert again.query(query).serialize() == \
                db.query(query).serialize()

    def test_stats_available(self):
        db = Database.from_xml(SMALL_BIB)
        assert db.doc_stats.n_elements == 17
        assert not db.doc_stats.recursive


class TestUpdateIntegration:
    def test_update_invalidates_index_and_stats_refresh(self):
        from repro.xmlkit import parse

        db = Database.from_xml(SMALL_BIB)
        db.engine.index.build()
        before = len(db.query("//book", strategy="twigstack"))
        report = db.updater().insert_subtree(
            db.doc.root, parse("<book><title>new</title></book>").root)
        assert report.indexes_invalidated == 1
        after = len(db.query("//book", strategy="twigstack"))
        assert after == before + 1

    def test_refresh_stats_after_update(self):
        from repro.xmlkit import parse

        db = Database.from_xml("<r><a/></r>")
        assert not db.doc_stats.recursive
        db.updater().insert_subtree(db.doc.elements_by_tag("a")[0],
                                    parse("<a/>").root)
        stats = db.refresh_stats()
        assert stats.recursive  # a within a now
        # the optimizer reads the refreshed stats
        db.query("for $x in //a, $y in $x//a return $y")
        assert "stack" in db.engine.last_plan or "twigstack" in db.engine.last_plan

    def test_refresh_stats_after_an_unwired_update_refreshes_everything(self):
        """Regression: ``refresh_stats`` used to replace the statistics
        only, so the fingerprint, the structural summary and the plan
        cache still described the old document — and the QL001
        static-empty plan cached for ``//magazine`` kept answering."""
        from repro.xmlkit import parse
        from repro.xmlkit.update import DocumentUpdater

        db = Database.from_xml(SMALL_BIB)
        assert len(db.query("//magazine")) == 0
        assert "static-empty" in db.engine.last_plan
        before = db.engine.stats_fingerprint()
        # An updater the database never wired: nothing is invalidated.
        DocumentUpdater(db.doc).insert_subtree(
            db.doc.root, parse("<magazine><title>m</title></magazine>").root)
        stats = db.refresh_stats()
        assert stats is db.doc_stats and stats.n_elements == 19
        assert db.engine.stats_fingerprint() != before
        assert len(db.query("//magazine")) == 1
        assert len(db.query("//magazine", strategy="naive")) == 1
        assert len(db.query("//magazine/title", strategy="twigstack")) == 1

    def test_explain_passthrough(self):
        db = Database.from_xml(SMALL_BIB)
        assert "strategy:" in db.explain("//book//last")
