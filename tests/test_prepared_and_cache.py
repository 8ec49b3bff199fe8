"""Prepared queries, the plan cache, parameter bindings, invalidation.

The correctness tests are differential: every cached or prepared
execution is compared byte-for-byte (``QueryResult.serialize``) against
a fresh compile on a fresh engine — and, where values are substituted,
against the naive oracle with the value inlined as a literal.
"""

import pytest

from repro import BindingError, Engine, UsageError, parse
from repro.engine.database import Database
from repro.engine.plancache import PlanCache
from repro.engine.prepared import PreparedQuery, normalize_bindings
from repro.obs.export import prometheus_text
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from tests.conftest import SMALL_BIB

PARAM_QUERY = ("for $b in //book where $b/price < $max "
               "return $b/title")


def fresh_result(xml: str, query: str, strategy: str = "auto") -> str:
    """Oracle: a brand-new engine (empty cache) compiling from scratch."""
    return Engine(parse(xml)).query(query, strategy=strategy).serialize()


class TestPlanCacheUnit:
    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refreshes a's recency
        cache.put("c", 3)                # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("x") is None
        cache.put("x", 1)
        cache.get("x")
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert len(cache) == 1

    def test_bad_capacity(self):
        with pytest.raises(UsageError):
            PlanCache(capacity=0)


class TestTransparentCache:
    def test_second_query_hits_and_matches_fresh_compile(self):
        engine = Engine(parse(SMALL_BIB))
        first = engine.query("//book[author]/title").serialize()
        assert engine.plan_cache.hits == 0
        second = engine.query("//book[author]/title").serialize()
        assert engine.plan_cache.hits == 1
        assert first == second == fresh_result(SMALL_BIB,
                                               "//book[author]/title")

    def test_whitespace_normalization_shares_plans(self):
        engine = Engine(parse(SMALL_BIB))
        engine.query("for $b in //book return $b/title")
        engine.query("for $b in //book\n   return   $b/title")
        assert engine.plan_cache.hits == 1

    def test_distinct_strategies_do_not_share_plans(self):
        engine = Engine(parse(SMALL_BIB))
        engine.query("//book", strategy="pipelined")
        engine.query("//book", strategy="stack")
        assert engine.plan_cache.hits == 0
        assert len(engine.plan_cache) == 2

    def test_span_attribute_records_hit_and_miss(self):
        engine = Engine(parse(SMALL_BIB))
        first = engine.query("//book", trace=True)
        assert first.trace.root.attrs["plan-cache"] == "miss"
        again = engine.query("//book", trace=True)
        assert again.trace.root.attrs["plan-cache"] == "hit"

    def test_preparsed_expressions_bypass_the_cache(self):
        from repro.xquery.parser import parse_query

        engine = Engine(parse(SMALL_BIB))
        expr = parse_query("//book/title")
        result = engine.query(expr, trace=True)
        assert result.trace.root.attrs["plan-cache"] == "bypass"
        assert len(engine.plan_cache) == 0

    def test_every_strategy_agrees_warm_and_cold(self):
        for strategy in ("auto", "pipelined", "stack", "bnlj", "naive",
                         "xhive", "twigstack"):
            engine = Engine(parse(SMALL_BIB))
            cold = engine.query("//book//last", strategy=strategy).serialize()
            warm = engine.query("//book//last", strategy=strategy).serialize()
            assert cold == warm == fresh_result(SMALL_BIB, "//book//last",
                                                strategy)


class TestInvalidation:
    def test_update_never_serves_stale_results(self):
        db = Database(SMALL_BIB)
        query = "//book/title"
        db.query(query)                   # plan now cached
        with db.updater() as up:
            up.insert_subtree(
                db.doc.root, parse("<book><title>Fresh</title></book>").root)
        after = db.query(query).serialize()
        # Differential: identical to a from-scratch engine over the
        # mutated document, and to the naive oracle.
        from repro.xmlkit import serialize

        fresh = fresh_result(serialize(db.doc.root), query)
        naive = db.query(query, strategy="naive").serialize()
        assert after == fresh == naive
        assert "Fresh" in after

    def test_update_invalidates_cached_plans(self):
        # A shape-changing commit moves the key: the old version's plan
        # is never looked up again (it leaves by LRU, not by a purge).
        db = Database(SMALL_BIB)
        db.query("//book")
        assert len(db.engine.plan_cache) == 1
        with db.updater() as up:
            up.delete_subtree(db.doc.elements_by_tag("book")[0])
        moved = db.query("//book", trace=True)
        assert moved.trace.root.attrs["plan-cache"] == "miss"
        assert len(moved) == 2
        assert len(db.engine.plan_cache) == 2
        assert "invalidations" not in db.engine.plan_cache.stats()

    def test_fingerprint_keys_out_stale_plans_without_listener(self):
        # The engine is never told about an update, and needs not be:
        # the updater edits its own fork, so the engine's version keeps
        # its plan, while the fork's own fingerprint keys that plan out
        # of a shared cache.
        from repro.xmlkit.update import DocumentUpdater

        engine = Engine(parse(SMALL_BIB))
        engine.query("//book")
        before = engine.stats_fingerprint()
        updater = DocumentUpdater(engine.doc)
        updater.insert_subtree(engine.doc.root, parse("<book/>").root)
        assert engine.stats_fingerprint() == before
        same = engine.query("//book", trace=True)
        assert same.trace.root.attrs["plan-cache"] == "hit" and len(same) == 3
        fork = Engine(updater.doc, plan_cache=engine.plan_cache)
        result = fork.query("//book", trace=True)
        assert result.trace.root.attrs["plan-cache"] == "miss"
        assert len(result) == 4

    def test_open_starts_with_an_empty_cache(self, tmp_path):
        db = Database(SMALL_BIB)
        db.query("//book")
        assert len(db.engine.plan_cache) == 1
        db.save(tmp_path / "lib.btx")
        again = Database.open(tmp_path / "lib.btx")
        assert len(again.engine.plan_cache) == 0
        assert again.query("//book").serialize() == \
            db.query("//book").serialize()


class TestPreparedQueries:
    def test_prepare_execute_matches_query(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare("//book[author]/title")
        assert isinstance(prepared, PreparedQuery)
        assert prepared.parameters == frozenset()
        assert prepared.execute().serialize() == \
            fresh_result(SMALL_BIB, "//book[author]/title")

    def test_bindings_byte_identical_to_fresh_compiles(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare(PARAM_QUERY)
        assert prepared.parameters == {"max"}
        for threshold in (30.0, 40.0, 66.0, 10.0):
            got = prepared.execute(params={"max": threshold}).serialize()
            inlined = PARAM_QUERY.replace("$max", str(threshold))
            assert got == fresh_result(SMALL_BIB, inlined)
            assert got == fresh_result(SMALL_BIB, inlined, "naive")

    def test_executions_do_not_recompile(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare(PARAM_QUERY)
        misses_after_prepare = engine.plan_cache.misses
        tracer = Tracer()
        trace = prepared.execute(params={"max": 40.0}, tracer=tracer).trace
        assert trace.root.attrs["plan-cache"] == "prepared"
        assert trace.find("compile") is None        # no re-parse/re-build
        assert engine.plan_cache.misses == misses_after_prepare

    def test_string_parameter(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare(
            "for $b in //book where $b/author/last = $name return $b/title")
        got = prepared.execute(params={"name": "Stevens"}).serialize()
        assert got == fresh_result(
            SMALL_BIB,
            "for $b in //book where $b/author/last = 'Stevens' "
            "return $b/title")

    def test_node_sequence_binding_roots_a_clause(self):
        # A clause rooted at an external parameter has no pattern-tree
        # anchor; auto falls back to the navigational evaluator, which
        # reads the bound node sequence directly.
        doc = parse(SMALL_BIB)
        engine = Engine(doc)
        prepared = engine.prepare("for $t in $books/title return $t")
        books = doc.elements_by_tag("book")[:2]
        got = prepared.execute(params={"books": books}).serialize()
        assert "TCP/IP Illustrated" in got and "Data on the Web" in got
        assert "Economics" not in got

    def test_missing_binding(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare(PARAM_QUERY)
        with pytest.raises(BindingError, match=r"\$max"):
            prepared.execute()

    def test_unknown_binding(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare("//book/title")
        with pytest.raises(BindingError, match="unknown parameter"):
            prepared.execute(params={"max": 1.0})

    def test_value_outside_the_model(self):
        with pytest.raises(BindingError, match="value model"):
            normalize_bindings(frozenset({"x"}), {"x": {"a": 1}})
        with pytest.raises(BindingError, match="only contain nodes"):
            normalize_bindings(frozenset({"x"}), {"x": ["not-a-node"]})

    def test_plain_query_requires_bindings_for_parameters(self):
        engine = Engine(parse(SMALL_BIB))
        with pytest.raises(BindingError):
            engine.query(PARAM_QUERY)

    def test_prepared_replans_after_update(self):
        db = Database(SMALL_BIB)
        prepared = db.prepare("//book/title")
        before = prepared.execute().serialize()
        with db.updater() as up:
            up.insert_subtree(
                db.doc.root, parse("<book><title>Fresh</title></book>").root)
        after = prepared.execute(trace=True)
        assert after.trace.root.attrs["plan-cache"] == "prepared-miss"
        after = after.serialize()
        assert "Fresh" in after and "Fresh" not in before
        from repro.xmlkit import serialize

        assert after == fresh_result(serialize(db.doc.root), "//book/title")

    def test_database_facade_mirrors_engine(self):
        db = Database(SMALL_BIB)
        prepared = db.prepare(PARAM_QUERY, strategy="auto")
        got = prepared.execute(params={"max": 40.0}).serialize()
        assert got == fresh_result(SMALL_BIB,
                                   PARAM_QUERY.replace("$max", "40.0"))
        assert "strategy:" in db.explain("//book")

    def test_repr_and_explain(self):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare(PARAM_QUERY)
        assert "$max" in repr(prepared)
        assert "strategy:" in prepared.explain()
        assert prepared.plan_description


class TestExposition:
    def test_plan_cache_counters_in_prometheus_text(self):
        engine = Engine(parse(SMALL_BIB))
        engine.query("//book")
        engine.query("//book")
        text = prometheus_text(REGISTRY)
        for name in ("repro_plan_cache_hits_total",
                     "repro_plan_cache_misses_total",
                     "repro_plan_cache_evictions_total"):
            assert name in text
