"""The observability layer: tracing, metrics, exports, EXPLAIN ANALYZE,
the slow-query log, and budget-trip reporting."""

from __future__ import annotations

import json

import pytest

import repro
from repro.engine.database import Database
from repro.engine.session import Engine
from repro.errors import DNFError, UsageError
from repro.obs import (
    REGISTRY,
    Histogram,
    MetricsRegistry,
    QueryTrace,
    SlowQueryLog,
    Tracer,
    prometheus_text,
)
from repro.obs.metrics import STATS_SCHEMA, bucket_quantile
from repro.obs.trace import NULL_TRACER
from repro.serve.service import STATS_KEYS
from repro.xmlkit.storage import ScanCounters

from tests.conftest import PAPER_QUERY

FLWOR = """
for $b in doc("bib.xml")//book
where $b/author
return $b/title
"""

#: Correlated FLWOR whose $b//last step becomes a real (non-vacuous)
#: inter-NoK descendant join.
CORRELATED = """
for $b in doc("bib.xml")//book, $l in $b//last
return $l
"""


# ----------------------------------------------------------------------
# Tracer core.
# ----------------------------------------------------------------------

def test_tracer_builds_parent_child_tree():
    tracer = Tracer()
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner") as inner:
            inner.set(n=3)
        outer.set(done=True)
    trace = tracer.finish()
    root = trace.root
    assert root.name == "outer"
    assert root.attrs == {"kind": "test", "done": True}
    assert [c.name for c in root.children] == ["inner"]
    assert root.children[0].attrs == {"n": 3}
    assert root.duration_ns >= root.children[0].duration_ns >= 0


def test_tracer_closes_spans_on_exception_and_records_error():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("work"):
            raise ValueError("boom")
    trace = tracer.finish()
    assert trace.root.end_ns >= trace.root.start_ns
    assert trace.root.attrs["error"] == "ValueError"


def test_null_tracer_is_inert():
    with NULL_TRACER.span("anything", x=1) as span:
        span.set(y=2)
    assert NULL_TRACER.finish().roots == []


# ----------------------------------------------------------------------
# Engine tracing.
# ----------------------------------------------------------------------

def test_query_trace_has_phase_nok_and_join_spans(paper_bib):
    engine = Engine(paper_bib)
    result = engine.query(PAPER_QUERY, trace=True)
    trace = result.trace
    assert isinstance(trace, QueryTrace)
    assert trace.root.name == "query"
    assert trace.root.attrs["items"] == len(result)

    for name in ("compile", "optimize", "execute", "match-phase",
                 "join-phase", "bind-phase", "finish-phase"):
        assert trace.find(name) is not None, name

    # One nok-scan span per NoK and one inter-join span per inter edge
    # of the query's decomposition (Algorithm 1).
    from repro.engine.compiler import compile_query
    from repro.pattern.decompose import decompose

    dec = decompose(compile_query(PAPER_QUERY).tree)
    nok_spans = trace.find_all("nok-scan")
    assert len(nok_spans) == len(dec.noks) == 3
    for span in nok_spans:
        assert span.attrs["shared_scan"] is True
        assert span.attrs["nodes_scanned"] > 0
        assert "matches" in span.attrs and "root_tag" in span.attrs

    join_spans = trace.find_all("inter-join")
    assert len(join_spans) == len(dec.inter_edges) == 2
    for span in join_spans:
        assert "algorithm" in span.attrs
        assert span.attrs["pairs"] >= 0


def test_untraced_query_has_no_trace(paper_bib):
    engine = Engine(paper_bib)
    result = engine.query("//book/title")
    assert result.trace is None
    assert result.counters is not None
    assert result.counters.nodes_scanned > 0


def test_trace_exports_jsonl_and_pretty(paper_bib):
    engine = Engine(paper_bib)
    trace = engine.query(FLWOR, trace=True).trace
    lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    assert lines[0]["name"] == "query"
    assert lines[0]["parent"] is None
    by_id = {line["id"]: line for line in lines}
    assert all(line["parent"] in by_id for line in lines[1:])
    assert any(line["name"] == "match-phase" for line in lines)

    text = trace.pretty()
    assert "query (" in text
    assert "match-phase" in text
    assert "└─" in text


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------

def test_registry_create_or_get_and_kind_mismatch():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "help")
    assert registry.counter("x_total") is a
    with pytest.raises(ValueError):
        registry.gauge("x_total")


def test_counter_gauge_histogram_semantics():
    registry = MetricsRegistry()
    counter = registry.counter("c_total")
    counter.inc(strategy="a")
    counter.inc(2, strategy="a")
    counter.inc(strategy="b")
    assert counter.value(strategy="a") == 3
    assert counter.value(strategy="b") == 1
    with pytest.raises(ValueError):
        counter.inc(-1)

    gauge = registry.gauge("g")
    gauge.max(5)
    gauge.max(3)
    assert gauge.value() == 5

    histogram = registry.histogram("h_ms", buckets=(1.0, 10.0))
    histogram.observe(0.5)
    histogram.observe(7.0)
    histogram.observe(100.0)
    assert histogram.count() == 3
    assert histogram.sum() == pytest.approx(107.5)


def test_query_feeds_process_metrics(paper_bib):
    engine = Engine(paper_bib)
    queries = REGISTRY.get("repro_queries_total")
    nodes = REGISTRY.get("repro_nodes_scanned_total")
    latency = REGISTRY.get("repro_query_latency_ms")
    before_q = queries.value(strategy="pipelined")
    before_n = nodes.value()
    before_lat = latency.count(strategy="pipelined")

    engine.query("//book/title", strategy="pipelined")

    assert queries.value(strategy="pipelined") == before_q + 1
    assert nodes.value() > before_n
    assert latency.count(strategy="pipelined") == before_lat + 1


def test_metrics_are_deltas_when_counters_reused(paper_bib):
    engine = Engine(paper_bib)
    nodes = REGISTRY.get("repro_nodes_scanned_total")
    counters = ScanCounters()
    engine.query("//book/title", strategy="pipelined", counters=counters)
    first_total = counters.nodes_scanned
    before = nodes.value()
    engine.query("//book/title", strategy="pipelined", counters=counters)
    # Second run publishes only its own work, not the accumulated total.
    assert nodes.value() - before == counters.nodes_scanned - first_total


def test_operator_and_join_selection_metrics(paper_bib):
    engine = Engine(paper_bib)
    invocations = REGISTRY.get("repro_operator_invocations_total")
    selected = REGISTRY.get("repro_join_selected_total")
    before_scan = invocations.value(operator="merged_scan")
    before_pl = selected.value(algorithm="pipelined")
    engine.query(CORRELATED, strategy="pipelined")
    assert invocations.value(operator="merged_scan") == before_scan + 1
    assert selected.value(algorithm="pipelined") == before_pl + 1


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    counter = registry.counter("demo_total", "Demo counter")
    counter.inc(4, strategy="pl")
    histogram = registry.histogram("demo_ms", "Demo latency", buckets=(1.0,))
    histogram.observe(0.5)
    text = prometheus_text(registry)
    assert "# HELP demo_total Demo counter" in text
    assert "# TYPE demo_total counter" in text
    assert 'demo_total{strategy="pl"} 4' in text
    assert 'demo_ms_bucket{le="1"} 1' in text
    assert 'demo_ms_bucket{le="+Inf"} 1' in text
    assert "demo_ms_count 1" in text


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE.
# ----------------------------------------------------------------------

def test_explain_analyze_one_row_per_nok_and_join(paper_bib):
    engine = Engine(paper_bib)
    text = engine.explain_analyze(PAPER_QUERY)
    lines = text.splitlines()
    assert lines[0] == "EXPLAIN ANALYZE"
    # The acceptance query: one row per NoK scan, one per inter join.
    assert sum(1 for line in lines if line.startswith("scan NoK#")) == 3
    assert sum(1 for line in lines if line.startswith("join V")) == 2
    # Measured columns next to the model's estimates.
    header = next(line for line in lines if line.startswith("operator"))
    for column in ("time ms", "nodes", "est.nodes", "cmp", "rows", "est.rows"):
        assert column in header
    assert any(line.startswith("plan: ") for line in lines)
    assert any(line.startswith("phases: match=") for line in lines)
    assert any(line.startswith("counters: nodes_scanned=") for line in lines)


def test_explain_analyze_estimates_match_cost_model(paper_bib):
    engine = Engine(paper_bib)
    text = engine.explain_analyze(PAPER_QUERY)
    # The NoK scan estimate is the full document (sequential access
    # method) and the book cardinality is 4 in the Example 2 document.
    book_rows = [line for line in text.splitlines()
                 if line.startswith("scan NoK#") and "[book]" in line]
    assert book_rows
    n_nodes = len(engine.doc.nodes)
    for row in book_rows:
        assert f"{n_nodes:,}" in row


def test_explain_analyze_document_root_scan_estimates_one_row(paper_bib):
    # A #root NoK yields the one document node; it is not priced like `*`.
    text = Engine(paper_bib).explain_analyze(PAPER_QUERY)
    root_rows = [line.split() for line in text.splitlines()
                 if line.startswith("scan NoK#") and "[#root]" in line]
    assert root_rows
    for row in root_rows:
        assert row[-2:] == ["1", "1"]       # rows, est.rows


def test_explain_analyze_naive_plan_reports_no_operator_rows(paper_bib):
    engine = Engine(paper_bib)
    text = engine.explain_analyze("1 + 1", strategy="naive")
    assert "no per-operator spans" in text


def test_database_explain_analyze_delegates(paper_bib):
    db = Database(paper_bib)
    assert db.explain_analyze("//book/title").startswith("EXPLAIN ANALYZE")


# ----------------------------------------------------------------------
# Slow-query log.
# ----------------------------------------------------------------------

def test_slow_query_log_records_past_threshold(paper_bib, tmp_path):
    log_path = tmp_path / "slow.jsonl"
    db = Database(paper_bib)
    db.configure_slow_log(threshold_ms=0.0, path=log_path)
    db.query(FLWOR)
    db.query("//book/title", strategy="pipelined")
    assert len(db.slow_log) == 2
    record = db.slow_log.entries[1]
    assert record.strategy == "pipelined"
    assert "pipelined" in record.plan
    assert record.elapsed_ms > 0
    assert record.counters["nodes_scanned"] > 0
    assert "//book/title" in record.describe()
    dumped = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(dumped) == 2
    assert dumped[0]["query"].strip() == FLWOR.strip()


def test_slow_query_log_threshold_filters(paper_bib):
    db = Database(paper_bib, slow_query_ms=1e9)   # nothing is that slow
    db.query("//book/title")
    assert len(db.slow_log) == 0


def test_slow_query_log_ring_bound():
    log = SlowQueryLog(threshold_ms=0.0, max_entries=3)
    for i in range(5):
        log.observe(f"q{i}", "auto", "plan", elapsed_ms=1.0)
    assert [r.query for r in log.entries] == ["q2", "q3", "q4"]


@pytest.mark.parametrize("kwargs", [
    {"threshold_ms": float("nan")}, {"threshold_ms": float("inf")},
    {"threshold_ms": -1.0}, {"threshold_ms": True}, {"threshold_ms": "5"},
    {"max_entries": 0}, {"max_entries": -3}, {"max_entries": 2.0},
    {"max_entries": False},
], ids=repr)
@pytest.mark.parametrize("surface", ["SlowQueryLog", "Database",
                                     "QueryService"])
def test_slow_query_log_refuses_settings_that_would_lie(surface, kwargs):
    """A NaN threshold logged every query and an empty ring handed back
    records it did not keep; every surface refuses them with
    ``UsageError`` (still a ``ValueError`` for older callers).  A
    service records into its database's log and configures it there."""
    with repro.connect("<a><b/></a>") as db:
        configure = {"SlowQueryLog": lambda: SlowQueryLog,
                     "Database": lambda: db.configure_slow_log,
                     "QueryService": lambda: db.serve(
                         workers=1).database.configure_slow_log}[surface]()
        with pytest.raises(UsageError) as info:
            configure(**kwargs)
        assert isinstance(info.value, ValueError)
        assert db.slow_log is None


# ----------------------------------------------------------------------
# Histogram quantiles (the per-strategy latency view) and exposition.
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
# The stats() payloads: Database, QueryService and the wire frame.
# ----------------------------------------------------------------------

class TestDatabaseStats:
    def test_stats_snapshot_shape(self):
        db = Database("<bib><book><title>t</title></book></bib>")
        db.query("//book/title")
        stats = db.stats()
        assert set(stats) == {"schema", "document", "plan_cache",
                              "slow_queries", "service"}
        assert stats["document"]["n_elements"] == 3
        assert stats["document"]["fingerprint"] \
            == db.doc.derived.summary.fingerprint()
        assert stats["plan_cache"]["misses"] >= 1
        assert stats["slow_queries"] is None
        assert stats["service"] is None
        json.dumps(stats)

    def test_doc_stats_still_exposes_document_statistics(self):
        db = Database("<a><b/></a>")
        assert db.doc_stats.n_elements == 2


class TestServiceStats:
    def test_service_stats_and_slow_log_tagging(self):
        with repro.connect("<bib><book><title>t</title></book></bib>") as db:
            db.configure_slow_log(0.0)        # threshold 0: log everything
            service = db.serve(workers=2)
            service.query("//book/title")
            service.query("//book/title")     # result-cache hit
            stats = service.stats()
            assert tuple(stats) == STATS_KEYS
            assert set(stats["result_cache"]) == {
                "size", "bytes", "capacity_bytes", "hits", "misses",
                "hit_ratio", "evictions", "invalidated", "rejected", "audit"}
            assert stats["result_cache"]["hits"] == 1
            assert "result_cache_hits" not in stats["counters"]
            assert stats["counters"]["submitted"] >= 2
            assert stats["counters"]["completed"] >= 1
            assert 0.0 <= stats["worker_utilization"] <= 1.0
            assert stats["uptime_s"] > 0
            main = stats["documents"]["main"]
            assert set(main) == {"snapshot_id", "plan_cache"}
            assert main["plan_cache"]["misses"] >= 1
            # the slow log was routed through the service with tags
            records = db.slow_log.entries
            assert records
            assert records[-1].snapshot_id is not None
            assert records[-1].deadline_state in ("none", "ok")
            assert "snapshot=" in records[-1].describe()
            assert stats["counters"]["slow_queries"] >= 1
            json.dumps(stats)

    def test_a_log_configured_after_serve_takes_served_queries(self):
        """The service reads its database's log when it records, so a
        log configured after ``serve()`` takes served and direct
        queries alike, and both stats payloads describe that one log."""
        with repro.connect("<a><b/></a>") as db:
            service = db.serve(workers=1)
            log = db.configure_slow_log(0.0)
            service.query("//b")
            db.query("//a")
            assert [r.query for r in log.entries] == ["//b", "//a"]
            stats = db.stats()
            assert stats["slow_queries"]["entries"] == 2
            assert stats["service"]["slow_queries"] == stats["slow_queries"]

    def test_database_stats_embeds_the_running_service(self):
        with repro.connect("<a><b/></a>") as db:
            db.serve(workers=1).query("//b")
            stats = db.stats()
            assert stats["service"] is not None
            assert stats["service"]["counters"]["completed"] >= 1

    def test_stats_payloads_declare_the_shared_schema(self):
        """Schema 4: ``plan_cache.invalidations`` left (plans are keyed
        by document shape; nothing purges them).  Schema 3 dropped the
        result cache's ``ttl_s`` / ``max_entries`` / ``max_entry_bytes``
        / ``expirations`` keys and the duplicate ``result_cache_hits`` /
        ``result_cache_misses`` counters; schema 2 the statistics
        store's key and the wire frame's ``top`` field, which an older
        client may still send."""
        from repro.serve.client import Client

        assert STATS_SCHEMA == 4
        with repro.connect("<a><b/></a>") as db:
            assert db.stats()["schema"] == STATS_SCHEMA
            assert set(db.stats()["plan_cache"]) == {
                "size", "capacity", "hits", "misses", "evictions",
                "hit_ratio"}
            service = db.serve(workers=1)
            assert service.stats()["schema"] == STATS_SCHEMA
            server = db.listen()
            with Client(*server.address) as client:
                assert client.stats()["schema"] == STATS_SCHEMA
                reply = client._roundtrip({"type": "stats", "top": "x"},
                                          expect="stats")
                assert reply["stats"]["schema"] == STATS_SCHEMA

    @pytest.mark.parametrize("name", STATS_KEYS)
    def test_sections_cannot_shadow_built_in_keys(self, name):
        """Only four of the keys stats() writes used to be reserved: a
        ``workers`` or ``slow_queries`` section replaced the real
        value."""
        with repro.connect("<a><b/></a>") as db:
            service = db.serve(workers=1)
            with pytest.raises(UsageError, match="reserved"):
                service.add_stats_section(name, lambda: "shadowed")
            assert service.stats()[name] != "shadowed"


# ----------------------------------------------------------------------
# Budget trips (satellite: DNF shows up in trace AND metrics).
# ----------------------------------------------------------------------

def test_budget_trip_reported_in_trace_and_metrics(paper_bib):
    engine = Engine(paper_bib)
    trips = REGISTRY.get("repro_budget_trips_total")
    dnf = REGISTRY.get("repro_dnf_total")
    before_trips = trips.value()
    before_dnf = dnf.value(strategy="pipelined")

    counters = ScanCounters()
    with pytest.raises(DNFError) as excinfo:
        engine.query(PAPER_QUERY, strategy="pipelined", counters=counters,
                     work_budget=3, trace=True)

    # Counter-level: the scan recorded the trip...
    assert counters.budget_trips == 1
    # ...the process metrics saw both the trip and the DNF...
    assert trips.value() == before_trips + 1
    assert dnf.value(strategy="pipelined") == before_dnf + 1
    # ...and the trace (carried on the error, as no result is returned)
    # carries the budget attributes on the root query span.
    trace = excinfo.value.trace
    assert trace is not None
    root = trace.root
    assert root.attrs["budget_tripped"] is True
    assert root.attrs["budget"] == 3
    assert root.attrs["nodes_scanned"] >= 3
    assert root.attrs.get("error") == "DNFError"
