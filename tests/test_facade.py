"""The public facade: ``repro.connect``, ``Database`` lifecycle and the
unified ``strategy``/``params``/``timeout_ms`` keyword surface."""

import inspect

import pytest

import repro
from repro.engine.database import Database
from repro.engine.request import QueryOptions
from repro.engine.session import Engine
from repro.errors import UsageError
from repro.xmlkit.parser import parse

LIBRARY = """
<library>
  <shelf genre="systems">
    <book id="b1"><author>Gray</author><title>Transaction</title></book>
    <book id="b2"><author>Codd</author><title>Relational</title></book>
  </shelf>
  <shelf genre="theory">
    <book id="b3"><title>Automata</title></book>
  </shelf>
</library>
"""


class TestConnect:
    def test_xml_text(self):
        with repro.connect(LIBRARY) as db:
            assert len(db.query("//book/title")) == 3

    def test_document_instance(self):
        doc = parse(LIBRARY)
        with repro.connect(doc) as db:
            assert db.doc is doc
            assert len(db.query("//book")) == 3

    def test_xml_file_path(self, tmp_path):
        path = tmp_path / "library.xml"
        path.write_text(LIBRARY, encoding="utf-8")
        for source in (path, str(path)):
            with repro.connect(source) as db:
                assert len(db.query("//shelf")) == 2

    def test_binary_file_path(self, tmp_path):
        path = tmp_path / "library.btx"
        Database(LIBRARY).save(path)
        with repro.connect(str(path)) as db:
            assert len(db.query("//book[author]")) == 2

    def test_binary_magic_is_sniffed_not_suffixed(self, tmp_path):
        # Extension is irrelevant; only the magic bytes decide.
        path = tmp_path / "library.xml"
        Database(LIBRARY).save(path)
        with repro.connect(path) as db:
            assert len(db.query("//book")) == 3

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="no such file"):
            repro.connect(str(tmp_path / "nope.xml"))

    def test_bad_type_is_a_usage_error(self):
        with pytest.raises(UsageError, match="expected XML text"):
            repro.connect(42)

    def test_slow_query_log_knob(self):
        with repro.connect(LIBRARY, slow_query_ms=10_000.0) as db:
            assert db.slow_log is not None
            db.query("//book/title")
            assert db.slow_log.entries == []


class TestDatabaseLifecycle:
    def test_context_manager_closes(self):
        db = repro.connect(LIBRARY)
        with db:
            pass
        with pytest.raises(UsageError, match="closed"):
            db.serve()

    def test_close_is_idempotent(self):
        db = repro.connect(LIBRARY)
        db.close()
        db.close()
        # Plain queries still work on the in-process engine.
        assert len(db.query("//book")) == 3

    def test_serve_returns_same_instance_while_running(self):
        with repro.connect(LIBRARY) as db:
            service = db.serve(workers=2)
            assert db.serve(workers=8) is service

    def test_serve_roundtrip(self):
        with repro.connect(LIBRARY) as db:
            service = db.serve(workers=2)
            served = service.query("//book/title")
            assert served.serialize() == db.query("//book/title").serialize()

    def test_both_updaters_publish_into_one_catalog(self):
        """One update path: ``db.updater()`` is the copy-on-write batch
        ``service.updater()`` hands out, so both are safe while serving
        and both publish the next version of the one database."""
        with repro.connect(LIBRARY) as db:
            service = db.serve(workers=1)
            with db.updater() as batch:
                batch.insert_subtree(batch.doc.root, parse("<book/>").root)
            with service.updater() as batch:
                batch.insert_subtree(batch.doc.root, parse("<book/>").root)
            assert service.database is db
            assert db.current().snapshot_id == 3
            assert len(service.query("//book")) == len(db.query("//book")) == 5

    def test_reads_follow_the_served_version(self):
        with repro.connect(LIBRARY) as db:
            service = db.serve(workers=1)
            prepared = db.prepare("//book")
            with service.updater() as batch:
                batch.insert_subtree(batch.doc.root, parse("<book/>").root)
            current = db.current()
            assert len(service.query("//book")) == 4
            assert len(db.query("//book")) == 4
            assert "4 item(s)" in db.explain_analyze("//book")
            document = db.stats()["document"]
            assert document["n_elements"] \
                == current.doc.derived.stats.n_elements
            assert document["fingerprint"] \
                == current.doc.derived.summary.fingerprint()
            # A prepared query runs on the current version, too.
            assert len(prepared.execute()) == 4
            assert db._pins == {}  # unpinned

    def test_prepared_queries_follow_every_commit(self):
        with repro.connect(LIBRARY) as db:
            prepared = db.prepare("//book", strategy="twigstack")
            assert len(prepared.execute()) == 3
            with db.updater() as batch:
                batch.insert_subtree(batch.doc.root, parse("<book/>").root)
            assert len(prepared.execute()) == 4
            service = db.serve(workers=1)
            with service.updater() as batch:
                batch.insert_subtree(batch.doc.root, parse("<book/>").root)
            assert len(prepared.execute()) == 5
            assert "twigstack" in prepared.explain()
            # The re-plan went through the shared cache: one miss per
            # version, and the old versions' plans were purged.
            assert db.engine.plan_cache.stats()["misses"] == 3

    def test_a_commit_outlives_the_service(self, tmp_path):
        with repro.connect(LIBRARY) as db:
            service = db.serve(workers=1)
            with service.updater() as batch:
                batch.insert_subtree(batch.doc.root, parse("<book/>").root)
            service.close()
            assert len(db.query("//book")) == 4
            assert len(db.doc.elements_by_tag("book")) == 4
            assert len(db.engine.query("//book")) == 4
            db.save(tmp_path / "lib.btx")
            with repro.connect(tmp_path / "lib.btx") as again:
                assert len(again.query("//book")) == 4
            assert len(db.serve(workers=1).query("//book")) == 4

    def test_one_read_path_counts_every_read(self):
        with repro.connect(LIBRARY) as db:
            log = db.configure_slow_log(0.0)
            service = db.serve(workers=1)
            db.query("//book")
            service.query("//book[title]")
            db.query("//book")
            assert db.engine.plan_cache is service.database.plan_cache
            assert service.database.slow_log is log
            stats = db.stats()
            assert stats["plan_cache"]["misses"] == 2
            assert stats["plan_cache"]["hits"] == 1
            assert [r.query for r in log.entries] == [
                "//book", "//book[title]", "//book"]
            assert stats["slow_queries"]["entries"] == 3
            assert stats["plan_cache"] \
                == stats["service"]["documents"]["main"]["plan_cache"]


def _five_surfaces():
    from repro.engine.prepared import PreparedQuery
    from repro.serve.client import Client
    from repro.serve.service import QueryService

    return [
        (Engine, "query"),
        (Database, "query"),
        (PreparedQuery, "execute"),
        (QueryService, "submit"),
        (Client, "query"),
    ]


class TestUnifiedKeywords:
    """One spelling everywhere: the contract test pinning the v1 call
    surface.  Every option is a field of the one carrier,
    :class:`~repro.engine.request.QueryOptions`, and must be spelled
    identically — and be keyword-only — on all five query surfaces:
    ``Engine.query``, ``Database.query``, ``PreparedQuery.execute``,
    ``QueryService.submit`` and the network ``Client.query``.  The
    one-release shims are gone: positional options and ``parallelism=``
    now raise a plain :class:`TypeError` on every surface."""

    #: What each surface accepts *besides* the QueryOptions fields...
    EXTRAS = {
        "Engine.query": {"counters", "tracer"},
        "Database.query": {"counters", "tracer"},
        "PreparedQuery.execute": {"counters", "tracer"},
        "QueryService.submit": {"client"},
        "Client.query": set(),
    }
    #: ...and the fields it leaves out, with the reason.
    OMITS = {
        "PreparedQuery.execute": {"strategy"},      # pinned by prepare()
        "QueryService.submit": {"work_budget"},     # in-process only
        "Client.query": {"work_budget", "trace"},   # not on the v1 wire
    }

    @pytest.mark.parametrize("owner, method",
                             _five_surfaces(),
                             ids=[f"{o.__name__}.{m}"
                                  for o, m in _five_surfaces()])
    def test_unified_kwargs_are_keyword_only_everywhere(self, owner, method):
        """The keyword set is *derived* from the one options carrier:
        adding a field to QueryOptions fails here until every surface
        (and, below, the frame codec) carries it."""
        sig = inspect.signature(getattr(owner, method))
        where = f"{owner.__name__}.{method}"
        keywords = {name for name, p in sig.parameters.items()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY}
        assert keywords == (set(QueryOptions.__slots__)
                            - self.OMITS.get(where, set())) \
            | self.EXTRAS[where], where
        # Nothing but ``self`` and the query text may be positional, and
        # there is no *args escape hatch: stray positionals (and the
        # long-removed parallelism= kwarg) are a plain TypeError.
        assert len(sig.parameters) - len(keywords) <= 2, where
        assert not any(
            p.kind is inspect.Parameter.VAR_POSITIONAL
            for p in sig.parameters.values()), \
            f"{where} still absorbs positional options"

    def test_the_wire_carries_every_option_the_client_accepts(self):
        wire = set(QueryOptions(params={"p": 1}, timeout_ms=5).to_frame())
        assert wire == (set(QueryOptions.__slots__)
                        - self.OMITS["Client.query"]) \
            | self.EXTRAS["Client.query"]

    def test_the_other_entry_points_spell_the_same_options(self):
        from repro.serve.client import Client, RemotePrepared
        from repro.serve.service import QueryService

        fields = set(QueryOptions.__slots__)
        for function, extras in (
                (QueryService.query, {"client"}),
                (QueryService.query_batch, set()),
                (Engine.prepare, set()), (Database.prepare, set()),
                (Client.prepare, set()), (RemotePrepared.execute, set())):
            keywords = {
                name for name, p in
                inspect.signature(function).parameters.items()
                if p.kind is inspect.Parameter.KEYWORD_ONLY}
            assert keywords - extras <= fields, function.__qualname__

    @pytest.mark.parametrize("owner, method", [
        (Database, "explain_analyze"), (Engine, "explain_analyze")])
    def test_diagnostic_surfaces_accept_the_unified_kwargs(self, owner,
                                                           method):
        sig = inspect.signature(getattr(owner, method))
        for name in ("strategy", "params", "timeout_ms"):
            assert name in sig.parameters, f"{owner.__name__}.{method}"

    def test_params_flow_through_database(self):
        with repro.connect(LIBRARY) as db:
            result = db.query("//book[author = $who]/title",
                              params={"who": "Gray"})
            assert result.string_values() == ["Transaction"]

    def test_prepared_execute_params(self):
        with repro.connect(LIBRARY) as db:
            prepared = db.prepare("//book[author = $who]/title")
            assert len(prepared.execute(params={"who": "Codd"})) == 1

    def test_bindings_spelling_is_removed(self):
        # The PR-4 ``bindings=`` alias completed its deprecation cycle;
        # ``params=`` is the only spelling now (see README).
        with repro.connect(LIBRARY) as db:
            prepared = db.prepare("//book[author = $who]/title")
            with pytest.raises(TypeError, match="bindings"):
                prepared.execute(bindings={"who": "Gray"})

    def test_positional_options_are_a_type_error(self):
        # The PR 7 positional-absorption shim completed its deprecation
        # cycle: options are strictly keyword-only now.
        with repro.connect(LIBRARY) as db:
            with pytest.raises(TypeError):
                db.query("//book/title", "naive")
            prepared = db.prepare("//book[author = $who]/title")
            with pytest.raises(TypeError):
                prepared.execute({"who": "Gray"})

    def test_parallelism_kwarg_is_a_type_error(self):
        # The PR 9 parallelism= → executor= shim is gone too.
        with repro.connect(LIBRARY) as db:
            with pytest.raises(TypeError, match="parallelism"):
                db.query("//book", parallelism=4)
            with pytest.raises(TypeError, match="parallelism"):
                db.prepare("//book", parallelism=4)
            service = db.serve(workers=1)
            with pytest.raises(TypeError, match="parallelism"):
                service.submit("//book", parallelism=4)
