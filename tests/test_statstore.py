"""The runtime statistics store and the feedback loop on top of it.

Covers the tentpole surface end to end: :class:`StatsStore` recording
semantics, histogram quantiles (including the exposition lines), the
:class:`StrategyAdvisor` explore-then-commit sequence, the engine's
recording/feedback wiring, the parallel-upgrade demotion regression
(``parallel`` measured slower than the serial scan must be demoted
within the first few executions), the ``Database.stats()`` /
``QueryService.stats()`` snapshots, and the ``python -m repro.obs``
CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.optimizer import (
    DEMOTE_MARGIN,
    MIN_FEEDBACK_SAMPLES,
    PlanChoice,
    StrategyAdvisor,
)
from repro.engine.plancache import normalize_query_text
from repro.engine.session import Engine
from repro.obs.export import prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_quantile
from repro.obs.statstore import (
    STRATEGY_DEMOTIONS,
    WORK_COUNTERS,
    DemotionRecord,
    StatsStore,
)
from repro.xmlkit.parser import parse

FP = (0, "fp")


def make_flat_doc(n_items: int = 2500) -> str:
    """A non-recursive document big enough for the parallel upgrade."""
    items = "".join(f"<item><val>{i % 7}</val></item>" for i in range(n_items))
    return f"<root>{items}</root>"


# ----------------------------------------------------------------------
# StatsStore recording semantics.
# ----------------------------------------------------------------------

class TestStatsStore:
    def test_record_accumulates(self):
        store = StatsStore()
        store.record("q", "pipelined", FP, "serial", elapsed_ms=2.0,
                     counters={"nodes_scanned": 10, "comparisons": 3},
                     items=5, cache_status="miss")
        entry = store.record("q", "pipelined", FP, "serial", elapsed_ms=4.0,
                             counters={"nodes_scanned": 6}, items=5,
                             cache_status="hit")
        assert entry.executions == 2
        assert entry.errors == 0
        assert entry.successes == 2
        assert entry.mean_ms == pytest.approx(3.0)
        assert entry.min_ms == pytest.approx(2.0)
        assert entry.max_ms == pytest.approx(4.0)
        assert entry.items_total == 10
        assert entry.work["nodes_scanned"] == 16
        assert entry.work["comparisons"] == 3
        assert entry.cache_hits == 1          # "miss" does not count
        assert store.records == 2
        assert len(store) == 1

    def test_prepared_counts_as_cache_hit(self):
        store = StatsStore()
        entry = store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0,
                             cache_status="prepared")
        assert entry.cache_hits == 1

    def test_error_runs_skip_selectivities(self):
        store = StatsStore()
        entry = store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0,
                             nok_matches=[("book", 7)], error="DNFError")
        assert entry.errors == 1
        assert entry.last_error == "DNFError"
        assert entry.successes == 0
        assert entry.nok_matches == {}        # failed run: no selectivity
        entry = store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0,
                             nok_matches=[("book", 7), ("book", 9)])
        assert entry.observed_cardinality("book") == pytest.approx(8.0)

    def test_keys_separate_strategy_and_executor(self):
        store = StatsStore()
        store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0)
        store.record("q", "parallel", FP, "threads:4", elapsed_ms=2.0)
        store.record("q", "pipelined", FP, "threads:4", elapsed_ms=3.0)
        assert len(store) == 3
        assert store.get("q", "pipelined", FP, "serial").mean_ms == pytest.approx(1.0)
        arms = store.arms("q", FP, "threads:4")
        assert set(arms) == {"parallel", "pipelined"}

    def test_lru_eviction_bounds_the_store(self):
        store = StatsStore(max_plans=2)
        store.record("a", "s", FP, "serial", elapsed_ms=1.0)
        store.record("b", "s", FP, "serial", elapsed_ms=1.0)
        store.record("a", "s", FP, "serial", elapsed_ms=1.0)   # refresh a
        store.record("c", "s", FP, "serial", elapsed_ms=1.0)   # evicts b
        assert store.get("b", "s", FP, "serial") is None
        assert store.get("a", "s", FP, "serial") is not None
        assert store.get("c", "s", FP, "serial") is not None

    def test_observed_cardinalities_pool_across_strategies(self):
        store = StatsStore()
        store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0,
                     nok_matches=[("book", 10)])
        store.record("q", "twigstack", FP, "serial", elapsed_ms=1.0,
                     nok_matches=[("book", 20)])
        store.record("q", "pipelined", ("other",), 1, elapsed_ms=1.0,
                     nok_matches=[("book", 999)])     # other version: excluded
        observed = store.observed_cardinalities(FP)
        assert observed == {"book": pytest.approx(15.0)}

    def test_top_queries_orders_by_total_time(self):
        store = StatsStore()
        store.record("cheap", "s", FP, "serial", elapsed_ms=1.0)
        for _ in range(3):
            store.record("hot", "s", FP, "serial", elapsed_ms=5.0)
        top = store.top_queries(1)
        assert len(top) == 1 and top[0]["query"] == "hot"
        assert top[0]["total_ms"] == pytest.approx(15.0)

    def test_strategy_table_wins_and_losses(self):
        store = StatsStore()
        for _ in range(2):
            store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0)
            store.record("q", "twigstack", FP, "serial", elapsed_ms=9.0)
        store.record("solo", "stack", FP, "serial", elapsed_ms=1.0)  # uncontested
        rows = {row["strategy"]: row for row in store.strategy_table()}
        assert rows["pipelined"]["wins"] == 1
        assert rows["pipelined"]["losses"] == 0
        assert rows["twigstack"]["losses"] == 1
        assert rows["stack"]["wins"] == 0 and rows["stack"]["losses"] == 0
        assert rows["twigstack"]["p50_ms"] is not None

    def test_snapshot_shape_and_top_bound(self):
        store = StatsStore()
        for name in ("a", "b", "c"):
            store.record(name, "s", FP, "serial", elapsed_ms=1.0)
        snap = store.snapshot(top=2)
        assert snap["n_plans"] == 3
        assert snap["records"] == 3
        assert len(snap["plans"]) == 2
        assert {"plans", "n_plans", "records", "by_strategy", "demotions",
                "settled"} <= set(snap)
        json.dumps(snap)                      # JSON-able end to end

    def test_settle_and_demotion_ring(self):
        store = StatsStore(max_demotions=2)
        before = STRATEGY_DEMOTIONS.value(from_strategy="parallel",
                                          to_strategy="pipelined")
        for i in range(3):
            store.settle(f"q{i}", FP, "serial", "pipelined", DemotionRecord(
                query=f"q{i}", fingerprint="fp", executor="serial",
                from_strategy="parallel", to_strategy="pipelined",
                from_mean_ms=2.0, to_mean_ms=1.0, executions=4, reason="r"))
        assert store.settled_strategy("q0", FP, "serial") == "pipelined"
        assert len(store.demotions) == 2      # bounded ring
        assert store.demotions[-1].query == "q2"
        after = STRATEGY_DEMOTIONS.value(from_strategy="parallel",
                                         to_strategy="pipelined")
        assert after == before + 3

    def test_jsonl_round_trip(self, tmp_path):
        store = StatsStore()
        store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0)
        store.settle("q", FP, "serial", "pipelined", DemotionRecord(
            query="q", fingerprint="fp", executor="serial",
            from_strategy="parallel", to_strategy="pipelined",
            from_mean_ms=2.0, to_mean_ms=1.0, executions=4, reason="r"))
        path = tmp_path / "stats.jsonl"
        assert store.export_jsonl(path) == 2
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines() if line]
        assert kinds == ["plan", "demotion"]

    def test_clear_resets_everything(self):
        store = StatsStore()
        store.record("q", "s", FP, "serial", elapsed_ms=1.0)
        store.settle("q", FP, "serial", "s")
        store.clear()
        assert len(store) == 0 and store.records == 0
        assert store.settled_strategy("q", FP, "serial") is None
        assert store.demotions == []


# ----------------------------------------------------------------------
# Histogram quantiles (satellite: edge cases + exposition).
# ----------------------------------------------------------------------

class TestHistogramQuantile:
    def test_empty_histogram_returns_none(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        assert hist.quantile(0.5) is None

    def test_out_of_range_raises(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_single_bucket_interpolates_from_zero(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(3.0)
        hist.observe(7.0)
        assert hist.quantile(0.5) == pytest.approx(5.0)   # rank 1 of 2

    def test_overflow_bucket_reports_last_finite_bound(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)                   # beyond every finite bucket
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_interpolation_inside_a_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.5):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(4.0)
        assert 0.0 <= hist.quantile(0.0) <= 1.0

    def test_bucket_quantile_degenerate_inputs(self):
        assert bucket_quantile((), [], 0, 0.5) is None
        # Empty leading bucket: the rank lands on its edge.
        assert bucket_quantile((1.0, 2.0), [0, 2], 2, 0.5) == pytest.approx(1.5)

    def test_prometheus_text_emits_quantile_lines(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_ms", "test", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        text = prometheus_text(registry)
        assert 't_ms_quantile{quantile="0.5"}' in text
        assert 't_ms_quantile{quantile="0.99"}' in text
        assert 't_ms_count 2' in text

    def test_empty_histogram_emits_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("t_ms", "test", buckets=(1.0,))
        assert "t_ms_quantile" not in prometheus_text(registry)


# ----------------------------------------------------------------------
# The advisor's explore-then-commit sequence (pure store-driven).
# ----------------------------------------------------------------------

class TestStrategyAdvisor:
    STATIC = PlanChoice("parallel", "static rules")

    def advise(self, store, text="q", executor="threads:4"):
        return StrategyAdvisor(store).advise(text, FP, executor,
                                             self.STATIC, "pipelined")

    def test_no_history_runs_the_static_choice(self):
        assert self.advise(StatsStore()).strategy == "parallel"

    def test_probes_alternative_after_static_is_measured(self):
        store = StatsStore()
        for _ in range(MIN_FEEDBACK_SAMPLES):
            store.record("q", "parallel", FP, "threads:4", elapsed_ms=5.0)
        choice = self.advise(store)
        assert choice.strategy == "pipelined"
        assert "probe" in choice.reason

    def test_settles_on_static_when_it_wins(self):
        store = StatsStore()
        for _ in range(MIN_FEEDBACK_SAMPLES):
            store.record("q", "parallel", FP, "threads:4", elapsed_ms=1.0)
            store.record("q", "pipelined", FP, "threads:4", elapsed_ms=5.0)
        choice = self.advise(store)
        assert choice.strategy == "parallel"
        assert store.settled_strategy("q", FP, "threads:4") == "parallel"
        assert store.demotions == []          # confirming is not a demotion

    def test_demotes_static_when_alternative_wins(self):
        store = StatsStore()
        for _ in range(MIN_FEEDBACK_SAMPLES):
            store.record("q", "parallel", FP, "threads:4", elapsed_ms=26.3)
            store.record("q", "pipelined", FP, "threads:4", elapsed_ms=25.3)
        choice = self.advise(store)
        assert choice.strategy == "pipelined"
        [demotion] = store.demotions
        assert demotion.from_strategy == "parallel"
        assert demotion.to_strategy == "pipelined"

    def test_demote_margin_is_hysteresis_not_a_coin_flip(self):
        store = StatsStore()
        for _ in range(MIN_FEEDBACK_SAMPLES):
            store.record("q", "parallel", FP, "threads:4", elapsed_ms=1.0)
            # faster, but within the margin: not worth flapping over
            store.record("q", "pipelined", FP, "threads:4",
                         elapsed_ms=1.0 / DEMOTE_MARGIN * 1.001)
        assert self.advise(store).strategy == "parallel"

    def test_settled_decision_holds_then_flips_on_degradation(self):
        store = StatsStore()
        for _ in range(MIN_FEEDBACK_SAMPLES):
            store.record("q", "parallel", FP, "threads:4", elapsed_ms=26.3)
            store.record("q", "pipelined", FP, "threads:4", elapsed_ms=25.3)
        assert self.advise(store).strategy == "pipelined"   # settles
        assert self.advise(store).strategy == "pipelined"   # holds
        # The settled arm degrades far past the re-promotion margin...
        for _ in range(20):
            store.record("q", "pipelined", FP, "threads:4", elapsed_ms=200.0)
        choice = self.advise(store)
        assert choice.strategy == "parallel"                # ...and flips
        assert "flip" in choice.reason

    def test_no_alternative_means_static(self):
        store = StatsStore()
        advisor = StrategyAdvisor(store)
        choice = advisor.advise("q", FP, "serial", PlanChoice("naive", "r"), None)
        assert choice.strategy == "naive"


# ----------------------------------------------------------------------
# Engine wiring: recording on every run, feedback on demand.
# ----------------------------------------------------------------------

class TestEngineRecording:
    def test_query_records_actuals_and_selectivities(self):
        engine = Engine(parse("<bib><book><title>t</title>"
                              "<author>a</author></book></bib>"))
        result = engine.query("//book[author]/title")
        key = (normalize_query_text("//book[author]/title"),
               result.strategy, engine.stats_fingerprint(), "serial")
        entry = engine.stats_store.get(*key)
        assert entry is not None
        assert entry.executions == 1
        assert entry.items_total == len(result)
        assert entry.work["nodes_scanned"] > 0
        # the match phase reported per-NoK observed cardinalities
        assert entry.nok_matches
        assert engine.stats_store.observed_cardinalities(
            engine.stats_fingerprint())

    def test_record_stats_false_records_nothing(self):
        engine = Engine(parse("<a><b/></a>"), record_stats=False)
        engine.query("//b")
        assert len(engine.stats_store) == 0

    def test_failed_runs_record_the_error(self):
        from repro.errors import DNFError

        engine = Engine(parse("<a><b/><b/><b/></a>"))
        with pytest.raises(DNFError):
            engine.query("//b", work_budget=1)
        entries = [e for e in engine.stats_store.top_queries(10)
                   if e["query"] == "//b"]
        assert entries and entries[0]["errors"] == 1
        assert entries[0]["last_error"] == "DNFError"

    def test_feedback_probes_both_arms_and_settles(self):
        engine = Engine(parse(make_flat_doc(200)), feedback=True)
        engine.index.build()
        text = "//item/val"
        for _ in range(2 * MIN_FEEDBACK_SAMPLES + 2):
            engine.query(text)
        norm = normalize_query_text(text)
        fp = engine.stats_fingerprint()
        arms = engine.stats_store.arms(norm, fp, "serial")
        assert len(arms) == 2                 # static + probed alternative
        assert engine.stats_store.settled_strategy(norm, fp, "serial") is not None

    def test_feedback_off_by_default_never_probes(self):
        engine = Engine(parse(make_flat_doc(200)))
        engine.index.build()
        for _ in range(6):
            engine.query("//item/val")
        arms = engine.stats_store.arms(
            normalize_query_text("//item/val"),
            engine.stats_fingerprint(), "serial")
        assert len(arms) == 1                 # only the static strategy ran

    def test_recost_ranks_against_observed_cardinalities(self):
        engine = Engine(parse(make_flat_doc(64)))
        engine.query("//item/val")
        ranked = engine.recost("//item/val")
        assert ranked                          # non-empty ranking
        explain = engine.explain("//item/val")
        assert "observed" in explain


class TestParallelDemotionRegression:
    """The PR-5 benchmark's case: ``parallel`` auto-upgraded yet measured
    slower than the serial scan must be demoted within the first few
    executions."""

    def test_parallel_demoted_to_serial_after_measured_regression(self):
        engine = Engine(parse(make_flat_doc(2500)), feedback=True)
        text = "//item/val"
        norm = normalize_query_text(text)
        fp = engine.stats_fingerprint()
        # Seed the two measured arms with that benchmark's shape: the
        # parallel upgrade costs ~4% over the serial merged scan.
        for _ in range(MIN_FEEDBACK_SAMPLES):
            engine.stats_store.record(norm, "parallel", fp, "threads:4",
                                      elapsed_ms=26.3)
            engine.stats_store.record(norm, "pipelined", fp, "threads:4",
                                      elapsed_ms=25.3)
        result = engine.query(text, executor="threads:4")
        assert len(result) == 2500
        assert result.strategy == "pipelined"
        assert engine.stats_store.settled_strategy(norm, fp, "threads:4") == "pipelined"
        [demotion] = engine.stats_store.demotions
        assert demotion.from_strategy == "parallel"
        assert demotion.to_strategy == "pipelined"
        assert "demoted" in demotion.reason

    def test_demotion_survives_the_plan_cache(self):
        """A cached ``parallel`` plan is re-cost on hit once the
        measured history points elsewhere."""
        engine = Engine(parse(make_flat_doc(2500)), feedback=True)
        text = "//item/val"
        norm = normalize_query_text(text)
        fp = engine.stats_fingerprint()
        # caches the parallel plan
        assert engine.query(text, executor="threads:4").strategy == "parallel"
        engine.stats_store.clear()            # seed a clean measured history
        for _ in range(MIN_FEEDBACK_SAMPLES):
            engine.stats_store.record(norm, "parallel", fp, "threads:4",
                                      elapsed_ms=26.3)
            engine.stats_store.record(norm, "pipelined", fp, "threads:4",
                                      elapsed_ms=25.3)
        # hit -> advised -> recost
        assert engine.query(text, executor="threads:4").strategy == "pipelined"
        assert engine.stats_store.demotions


# ----------------------------------------------------------------------
# Introspection surfaces: Database.stats(), QueryService.stats(), CLI.
# ----------------------------------------------------------------------

class TestDatabaseStats:
    def test_stats_snapshot_shape(self):
        from repro.engine.database import Database

        db = Database.from_xml("<bib><book><title>t</title></book></bib>")
        db.query("//book/title")
        stats = db.stats()
        assert stats["document"]["n_elements"] == 3
        assert "/" in stats["document"]["fingerprint"]
        assert stats["plan_cache"]["misses"] >= 1
        assert stats["statstore"]["records"] >= 1
        assert stats["slow_queries"] is None
        assert stats["service"] is None
        assert stats["feedback"] is False
        json.dumps(stats)

    def test_doc_stats_still_exposes_document_statistics(self):
        from repro.engine.database import Database

        db = Database.from_xml("<a><b/></a>")
        assert db.doc_stats.n_elements == 2

    def test_connect_feedback_flag_reaches_the_engine(self):
        import repro

        with repro.connect("<a><b/></a>", feedback=True) as db:
            assert db.engine.feedback is True
        with repro.connect("<a><b/></a>") as db:
            assert db.engine.feedback is False


class TestServiceStats:
    def test_service_stats_and_slow_log_tagging(self):
        import repro

        with repro.connect("<bib><book><title>t</title></book></bib>") as db:
            db.configure_slow_log(0.0)        # threshold 0: log everything
            service = db.serve(workers=2)
            service.query("//book/title")
            service.query("//book/title")     # result-cache hit
            stats = service.stats()
            assert stats["counters"]["submitted"] >= 2
            assert stats["counters"]["completed"] >= 1
            assert 0.0 <= stats["worker_utilization"] <= 1.0
            assert stats["uptime_s"] > 0
            main = stats["documents"]["main"]
            assert main["statstore"]["records"] >= 1
            assert main["plan_cache"]["misses"] >= 1
            # the slow log was routed through the service with tags
            records = db.slow_log.entries
            assert records
            assert records[-1].snapshot_id is not None
            assert records[-1].deadline_state in ("none", "ok")
            assert "snapshot=" in records[-1].describe()
            assert stats["counters"]["slow_queries"] >= 1
            json.dumps(stats)

    def test_database_stats_embeds_the_running_service(self):
        import repro

        with repro.connect("<a><b/></a>") as db:
            db.serve(workers=1).query("//b")
            stats = db.stats()
            assert stats["service"] is not None
            assert stats["service"]["counters"]["completed"] >= 1


class TestObsCli:
    def test_report_renders_database_stats_json(self, tmp_path, capsys):
        from repro.engine.database import Database
        from repro.obs.__main__ import main

        db = Database.from_xml("<bib><book><title>t</title></book></bib>")
        db.query("//book/title")
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(db.stats()), encoding="utf-8")
        assert main(["report", "--stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runtime statistics" in out
        assert "//book/title" in out
        assert "plan cache" in out

    def test_report_renders_jsonl_export(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        store = StatsStore()
        store.record("//a//b", "pipelined", FP, "serial", elapsed_ms=2.5, items=3)
        path = tmp_path / "stats.jsonl"
        store.export_jsonl(path)
        assert main(["report", "--stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "//a//b" in out and "pipelined" in out

    def test_report_rejects_unreadable_input(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["report", "--stats", str(tmp_path / "nope.json")]) == 2
        assert "cannot read stats" in capsys.readouterr().err

    def test_report_rejects_unknown_schema_versions(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "stats.json"
        path.write_text(json.dumps({"schema": 99, "plans": []}),
                        encoding="utf-8")
        assert main(["report", "--stats", str(path)]) == 2
        assert "schema 99" in capsys.readouterr().err

    def test_stats_payloads_declare_schema_1(self):
        import repro

        with repro.connect("<a><b/></a>") as db:
            assert db.stats()["schema"] == 1
            service = db.serve(workers=1)
            assert service.stats()["schema"] == 1
