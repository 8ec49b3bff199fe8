"""The runtime statistics store: an observer, read only by ``stats()``.

Covers :class:`StatsStore` recording semantics, histogram quantiles
(including the exposition lines), the engine's recording on every run
(and that no recorded history moves a plan), the ``Database.stats()`` /
``QueryService.stats()`` snapshots, and the ``python -m repro.obs``
CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.plancache import normalize_query_text
from repro.engine.session import Engine
from repro.obs.export import prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_quantile
from repro.obs.statstore import StatsStore
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
        assert entry.to_dict()["nok_selectivity"] == {"book": 8.0}

    def test_keys_separate_strategy_and_executor(self):
        store = StatsStore()
        store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0)
        store.record("q", "parallel", FP, "threads:4", elapsed_ms=2.0)
        store.record("q", "pipelined", FP, "threads:4", elapsed_ms=3.0)
        assert len(store) == 3
        assert store.get("q", "pipelined", FP, "serial").mean_ms == pytest.approx(1.0)
        assert store.get("q", "parallel", FP, "threads:4").mean_ms == pytest.approx(2.0)
        assert store.get("q", "pipelined", FP, "threads:4").mean_ms == pytest.approx(3.0)

    def test_lru_eviction_bounds_the_store(self):
        store = StatsStore(max_plans=2)
        store.record("a", "s", FP, "serial", elapsed_ms=1.0)
        store.record("b", "s", FP, "serial", elapsed_ms=1.0)
        store.record("a", "s", FP, "serial", elapsed_ms=1.0)   # refresh a
        store.record("c", "s", FP, "serial", elapsed_ms=1.0)   # evicts b
        assert store.get("b", "s", FP, "serial") is None
        assert store.get("a", "s", FP, "serial") is not None
        assert store.get("c", "s", FP, "serial") is not None

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
        assert set(snap) == {"plans", "n_plans", "records", "by_strategy"}
        json.dumps(snap)                      # JSON-able end to end

    def test_jsonl_round_trip(self, tmp_path):
        store = StatsStore()
        store.record("q", "pipelined", FP, "serial", elapsed_ms=1.0)
        store.record("q", "stack", FP, "serial", elapsed_ms=2.0)
        path = tmp_path / "stats.jsonl"
        assert store.export_jsonl(path) == 2
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line]
        assert [(line["kind"], line["strategy"]) for line in lines] == \
            [("plan", "stack"), ("plan", "pipelined")]

    def test_clear_resets_everything(self):
        store = StatsStore()
        store.record("q", "s", FP, "serial", elapsed_ms=1.0)
        store.clear()
        assert len(store) == 0 and store.records == 0
        assert store.snapshot()["by_strategy"] == []


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
# Engine wiring: recording on every run, and nothing reads it back.
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

    def test_failed_runs_record_the_error(self):
        from repro.errors import DNFError

        engine = Engine(parse("<a><b/><b/><b/></a>"))
        with pytest.raises(DNFError):
            engine.query("//b", work_budget=1)
        entries = [e for e in engine.stats_store.top_queries(10)
                   if e["query"] == "//b"]
        assert entries and entries[0]["errors"] == 1
        assert entries[0]["last_error"] == "DNFError"

    @pytest.mark.parametrize("items, executor, static, faster", [
        (200, "serial", "pipelined", "twigstack"),
        # The parallel upgrade measured slower than the serial scan it
        # replaced is still what ``auto`` runs: the rules decide.
        (2500, "threads:2", "parallel", "pipelined"),
    ], ids=["serial", "parallel"])
    def test_recorded_history_never_moves_the_plan(self, items, executor,
                                                   static, faster):
        xml, text = make_flat_doc(items), "//item/val"
        engine = Engine(parse(xml))
        assert engine.query(text, executor=executor).strategy == static
        norm, fp = normalize_query_text(text), engine.stats_fingerprint()
        for _ in range(5):            # another strategy measured faster
            engine.stats_store.record(norm, faster, fp, executor,
                                      elapsed_ms=0.01)
            engine.stats_store.record(norm, static, fp, executor,
                                      elapsed_ms=50.0)
        again = engine.query(text, executor=executor, trace=True)
        assert again.strategy == static
        assert again.trace.root.attrs["plan-cache"] == "hit"
        assert again.serialize() == \
            Engine(parse(xml)).query(text, executor=executor).serialize()
        # ...while the store still reports what it saw.
        rows = {row["strategy"]: row
                for row in engine.stats_store.strategy_table()}
        assert rows[faster]["wins"] == 1 and rows[static]["losses"] == 1


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
        json.dumps(stats)

    def test_doc_stats_still_exposes_document_statistics(self):
        from repro.engine.database import Database

        db = Database.from_xml("<a><b/></a>")
        assert db.doc_stats.n_elements == 2

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

    def test_report_ignores_keys_of_older_dumps(self, tmp_path, capsys):
        """Dumps written before the store became a pure observer carry
        feedback decisions, a result-size histogram and a cache window:
        the report skips them, and the schema is still 1."""
        from repro.obs.__main__ import main

        plan = {"query": "//a//b", "strategy": "pipelined",
                "executor": "serial", "executions": 2, "total_ms": 3.0}
        demotion = {"query": "//a//b", "from_strategy": "parallel",
                    "to_strategy": "pipelined", "from_mean_ms": 2.0,
                    "to_mean_ms": 1.0}
        store = {"plans": [plan], "n_plans": 1, "records": 2,
                 "by_strategy": [], "demotions": [demotion],
                 "settled": {"//a//b | 1 | serial": "pipelined"},
                 "result_bytes": {"observations": 2, "p50": 900.0,
                                  "p95": 1000.0}}
        service = {"schema": 1, "counters": {}, "documents": {
                       "main": {"snapshot_id": 1, "statstore": store}},
                   "result_cache": {"size": 0, "hits": 1, "misses": 1,
                                    "window": {"hit_ratio": 0.5},
                                    "policy": "AdaptiveCachePolicy"}}
        dump = {"schema": 1, "feedback": True, "statstore": store,
                "service": service}
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(dump), encoding="utf-8")
        assert main(["report", "--stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "//a//b" in out and "pipelined" in out
        assert "result cache:" in out
        assert "feedback" not in out and "demot" not in out
        assert "window" not in out
        jsonl = tmp_path / "stats.jsonl"
        jsonl.write_text(json.dumps({"kind": "plan", **plan}) + "\n"
                         + json.dumps({"kind": "demotion", **demotion})
                         + "\n", encoding="utf-8")
        assert main(["report", "--stats", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "1 plans" in out and "demot" not in out

    def test_demo_runs_auto_plus_a_contested_strategy(self, tmp_path,
                                                      capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "demo.json"
        assert main(["demo", "--rounds", "1", "--export", str(path)]) == 0
        assert "per-strategy win/loss" in capsys.readouterr().out
        rows = {row["strategy"]: row for row in json.loads(
            path.read_text(encoding="utf-8"))["statstore"]["by_strategy"]}
        assert set(rows) == {"pipelined", "twigstack"}   # auto + explicit
        assert sum(row["wins"] + row["losses"]
                   for row in rows.values()) == 4         # two contests

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
