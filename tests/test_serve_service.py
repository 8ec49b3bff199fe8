"""Query service: deadlines, admission, caching."""

import os
import sys
import threading
import time

import pytest

from repro.engine.request import QueryKey, QueryOptions
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceOverloadedError,
    UsageError,
)
from repro.obs.metrics import REGISTRY
from repro.serve import (
    Catalog,
    QueryService,
    ServeResult,
)
from repro.xmlkit.storage import CancellationToken, ScanCounters
from repro.xmlkit.parser import parse

LIBRARY = """
<library>
  <shelf><book><author>Stevens</author><title>TCP/IP</title></book>
  <book><author>Tanenbaum</author><title>Networks</title></book></shelf>
  <shelf><book><author>Cormen</author><title>CLRS</title></book></shelf>
</library>
"""

_TIMEOUTS = REGISTRY.counter("repro_query_timeout_total", "")
_REJECTIONS = REGISTRY.counter("repro_service_rejections_total", "")
_COALESCED = REGISTRY.counter("repro_service_coalesced_total", "")
_RESULT_HITS = REGISTRY.counter("repro_result_cache_hits_total", "")


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    return QueryService(LIBRARY, **kwargs)


class TestCancellationToken:
    def test_expired_deadline_raises_timeout(self):
        token = CancellationToken(timeout_ms=0, stride=1)
        with pytest.raises(QueryTimeoutError, match="deadline"):
            token.checkpoint()

    def test_cancel_raises_cancelled(self):
        token = CancellationToken(stride=1)
        token.cancel()
        with pytest.raises(QueryCancelledError):
            token.checkpoint()

    def test_stride_batches_clock_reads(self):
        token = CancellationToken(timeout_ms=0, stride=1000)
        for _ in range(999):
            token.checkpoint()      # under the stride: no check yet
        with pytest.raises(QueryTimeoutError):
            token.checkpoint()      # the 1000th tick reads the clock

    def test_no_deadline_never_times_out(self):
        token = CancellationToken(stride=1)
        for _ in range(10):
            token.checkpoint()


class TestEngineDeadline:
    def test_timeout_zero_raises_and_counts(self):
        from repro.engine.session import Engine

        engine = Engine(parse(LIBRARY))
        before = _TIMEOUTS.value()
        with pytest.raises(QueryTimeoutError):
            engine.query("//book/title", timeout_ms=0)
        assert _TIMEOUTS.value() == before + 1

    def test_scan_loop_checkpoints_cooperatively(self):
        # A token that expires mid-scan (not at the pre-check) proves
        # the operators' scan loops really consult it.
        from repro.engine.session import Engine

        engine = Engine(parse(LIBRARY))
        counters = ScanCounters()
        token = CancellationToken(timeout_ms=10_000, stride=1)
        token.deadline = time.monotonic() - 1.0   # expire between checkpoints
        counters.cancellation = token
        with pytest.raises(QueryTimeoutError):
            engine.query("//book[author]/title", strategy="pipelined",
                         counters=counters)

    def test_generous_deadline_succeeds(self):
        from repro.engine.session import Engine

        engine = Engine(parse(LIBRARY))
        assert len(engine.query("//book/title", timeout_ms=60_000)) == 3


class TestServiceBasics:
    def test_submit_returns_serve_result(self):
        with make_service() as service:
            served = service.submit("//book[author]/title").result()
        assert isinstance(served, ServeResult)
        assert len(served) == 3
        assert served.snapshot_id == 1
        assert served.wait_ms >= 0 and served.run_ms >= 0

    def test_query_batch_in_order(self):
        with make_service() as service:
            results = service.query_batch(
                ["//book/title", "//book/author", "//shelf"])
        assert [len(r) for r in results] == [3, 3, 2]

    def test_batch_per_item_overrides(self):
        with make_service() as service:
            results = service.query_batch([
                {"text": "//book/title"},
                {"text": "//book/title", "strategy": "naive"},
            ])
        assert all(len(r) == 3 for r in results)

    def test_submit_after_close_refused(self):
        service = make_service()
        service.close()
        assert service.closed
        with pytest.raises(UsageError, match="closed"):
            service.submit("//book")

    def test_close_idempotent(self):
        service = make_service()
        service.close()
        service.close()

    def test_queries_keep_pinned_snapshot_under_updates(self):
        with make_service() as service:
            first = service.query("//book/title")
            with service.updater() as up:
                shelf = [c for c in up.doc.root.children
                         if c.tag is not None][0]
                up.delete_subtree(shelf)
            second = service.query("//book/title")
        assert first.snapshot_id == 1 and len(first) == 3
        assert second.snapshot_id == 2 and len(second) == 1


class TestSlowLogOnASharedEngine:
    def test_each_record_logs_its_own_requests_plan(self):
        """The serving twin of the re-entrant engine regression: two
        workers share one snapshot engine, so a slow-log record built
        from state kept on the engine could show the *other* worker's
        plan.  Each record's plan comes from its own run, so the
        assertion holds under any interleaving."""
        with make_service(workers=2, slow_query_ms=0.0,
                          result_cache=0) as service:
            futures = [service.submit(f'//book[author != "a{i}"]/title',
                                      strategy=strategy)
                       for i in range(20)
                       for strategy in ("naive", "pipelined")]
            results = [future.result() for future in futures]
            assert {r.snapshot_id for r in results} == {1}
            records = service.slow_log.entries
            assert len(records) == len(futures)
            for record in records:
                assert record.plan.startswith(record.strategy), record
            for served, strategy in zip(results, ("naive", "pipelined") * 20):
                assert served.result.strategy == strategy
                assert served.result.plan.startswith(strategy)


class TestDeadlines:
    def test_queue_expired_request_times_out_and_counts(self):
        before = _TIMEOUTS.value()
        with make_service() as service:
            future = service.submit("//book/title", timeout_ms=0)
            with pytest.raises(QueryTimeoutError, match="queue"):
                future.result(timeout=10)
        assert _TIMEOUTS.value() > before

    def test_default_timeout_applies(self):
        before = _TIMEOUTS.value()
        with make_service(default_timeout_ms=0) as service:
            with pytest.raises(QueryTimeoutError):
                service.query("//book/title")
        assert _TIMEOUTS.value() > before

    def test_unexpired_deadline_serves_normally(self):
        with make_service() as service:
            served = service.query("//book/title", timeout_ms=60_000)
        assert len(served) == 3


class TestAdmissionControl:
    def test_overload_rejected_with_counter(self):
        gate = threading.Event()
        release = threading.Event()

        catalog = Catalog()
        catalog.register("main", LIBRARY)
        service = QueryService(catalog, workers=1, max_queue=2)
        try:
            # Occupy the single worker with a slow request.
            original = catalog.engine_for

            def slow_engine_for(snapshot):
                gate.set()
                release.wait(timeout=10)
                return original(snapshot)

            catalog.engine_for = slow_engine_for
            blocker = service.submit("//book/author")
            assert gate.wait(timeout=10)
            # Fill the queue (distinct texts: coalescing must not merge).
            service.submit("//book/title")
            service.submit("//shelf")
            before = _REJECTIONS.value()
            with pytest.raises(ServiceOverloadedError) as exc_info:
                service.submit("//book")
            assert exc_info.value.queue_depth == 2
            assert _REJECTIONS.value() == before + 1
        finally:
            release.set()
            blocker.result(timeout=10)
            catalog.engine_for = original
            service.close()

    def test_batch_admission_is_all_or_nothing(self):
        gate = threading.Event()
        release = threading.Event()
        catalog = Catalog()
        catalog.register("main", LIBRARY)
        service = QueryService(catalog, workers=1, max_queue=2)
        try:
            original = catalog.engine_for

            def slow_engine_for(snapshot):
                gate.set()
                release.wait(timeout=10)
                return original(snapshot)

            catalog.engine_for = slow_engine_for
            blocker = service.submit("//book/author")
            assert gate.wait(timeout=10)
            with pytest.raises(ServiceOverloadedError):
                service.query_batch(["//a", "//b", "//c"])
            assert service.stats()["queue_depth"] == 0
        finally:
            release.set()
            blocker.result(timeout=10)
            catalog.engine_for = original
            service.close()


class TestCoalescingAndResultCache:
    def test_identical_requests_coalesce(self):
        gate = threading.Event()
        release = threading.Event()
        catalog = Catalog()
        catalog.register("main", LIBRARY)
        service = QueryService(catalog, workers=1)
        try:
            original = catalog.engine_for

            def slow_engine_for(snapshot):
                gate.set()
                release.wait(timeout=10)
                return original(snapshot)

            catalog.engine_for = slow_engine_for
            first = service.submit("//book/title")
            assert gate.wait(timeout=10)
            catalog.engine_for = original
            before = _COALESCED.value()
            # Queue an identical and a whitespace-variant request.
            second = service.submit("//book/title")
            third = service.submit("  //book/title  ")
            assert _COALESCED.value() == before + 2
            assert second is first and third is first
        finally:
            release.set()
            service.close()

    def test_a_repeat_after_the_answer_is_a_cache_hit(self):
        """A submission made once an identical request has answered
        reads the result cache: the coalescing slot is released before
        the future resolves, so the repeat cannot attach to the finished
        execution (which would answer ``cached=False``)."""
        lanes = (os.cpu_count() or 1) + 2
        failures: list[str] = []

        def lane(n: int) -> None:
            for k in range(25):
                text = f"//book[author != 'x{n}-{k}']/title"
                first = service.query(text)
                second = service.query(text)
                if first.cached or not second.cached:
                    failures.append(f"{text}: {first.cached}, "
                                    f"{second.cached}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_service(workers=lanes) as service:
                threads = [threading.Thread(target=lane, args=(n,))
                           for n in range(lanes)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_result_cache_replays_on_same_snapshot(self):
        before = _RESULT_HITS.value()
        with make_service(workers=1) as service:
            first = service.query("//book/title")
            second = service.query("//book/title")
        assert not first.cached and second.cached
        assert second.result is first.result
        assert _RESULT_HITS.value() == before + 1

    def test_publish_invalidates_results_via_retire(self):
        with make_service(workers=1) as service:
            first = service.query("//book/title")
            with service.updater() as up:
                shelf = [c for c in up.doc.root.children
                         if c.tag is not None][0]
                up.delete_subtree(shelf)
            second = service.query("//book/title")
        assert len(first) == 3
        assert not second.cached and len(second) == 1

    def test_parameterized_requests_never_cached(self):
        with make_service(workers=1) as service:
            q = ("for $b in //book where $b/author = $who "
                 "return $b/title")
            first = service.query(q, params={"who": "Stevens"})
            second = service.query(q, params={"who": "Stevens"})
        assert not first.cached and not second.cached
        assert len(first) == len(second) == 1


class TestCacheLifecycle:
    """Storage-backed cache semantics: the retire audit, the lifetime hit
    ratio across a commit, and admission under the byte budget."""

    def test_retire_drops_entries_eagerly_with_audit(self):
        """The lifecycle bugfix regression: a publish retires the old
        snapshot and its cached results must be *gone* — counter-backed
        (audit survivors == 0), not merely unreachable — before the
        retiring call returns, and a probe on the retired snapshot's key
        must miss."""
        with make_service(workers=2) as service:
            storage = service.result_cache
            queries = ("//book/title", "//book/author", "//shelf[book]")
            for text in queries:
                service.query(text)
            retired_id = service.catalog.current("main").snapshot_id
            assert len(storage) == len(queries)
            stale_key = QueryKey("//book/title", QueryOptions()).result(
                "main", retired_id)
            assert storage.get(stale_key) is not None

            with service.updater() as up:
                shelf = [c for c in up.doc.root.children
                         if c.tag is not None][0]
                up.delete_subtree(shelf)

            # Eager, synchronous: zero entries the moment commit returns,
            # with the audit proving the snapshot index covered them all.
            assert len(storage) == 0
            stats = storage.stats()
            assert stats["invalidated"] == len(queries)
            assert stats["audit"]["snapshots_invalidated"] >= 1
            assert stats["audit"]["survivors"] == 0
            assert stats["bytes"] == 0
            assert storage.get(stale_key) is None
            fresh = service.query("//book/title")
            assert not fresh.cached and len(fresh) == 1

    def test_hit_ratio_is_lifetime_and_survives_clear(self):
        with make_service(workers=1) as service:
            storage = service.result_cache
            service.query("//book/title")             # miss
            service.query("//book/title")             # hit
            assert storage.stats()["hit_ratio"] == 0.5
            service.query("//book/title")             # hit
            assert storage.stats()["hit_ratio"] == pytest.approx(
                2 / 3, abs=1e-4)

            with service.updater() as up:             # drops the entries
                shelf = [c for c in up.doc.root.children
                         if c.tag is not None][0]
                up.delete_subtree(shelf)
            stats = storage.stats()
            assert stats["size"] == 0
            assert stats["hits"] == 2 and stats["misses"] == 1
            assert not service.query("//book/title").cached

    def test_oversized_results_are_rejected_not_admitted(self):
        with make_service(workers=1, result_cache=1) as service:
            first = service.query("//book/title")
            second = service.query("//book/title")
            stats = service.result_cache.stats()
        assert not first.cached and not second.cached
        assert stats["size"] == 0
        assert stats["rejected"] >= 1


class TestCloseSemantics:
    def test_close_without_drain_cancels_queued(self):
        gate = threading.Event()
        release = threading.Event()
        catalog = Catalog()
        catalog.register("main", LIBRARY)
        service = QueryService(catalog, workers=1)
        original = catalog.engine_for

        def slow_engine_for(snapshot):
            gate.set()
            release.wait(timeout=10)
            return original(snapshot)

        catalog.engine_for = slow_engine_for
        blocker = service.submit("//book/author")
        assert gate.wait(timeout=10)
        catalog.engine_for = original
        queued = service.submit("//book/title")
        release.set()
        service.close(drain=False)
        blocker.result(timeout=10)          # in-flight request completes
        with pytest.raises(QueryCancelledError):
            queued.result(timeout=10)

    def test_close_with_drain_serves_everything(self):
        service = make_service()
        futures = [service.submit(q)
                   for q in ("//book/title", "//book/author", "//shelf")]
        service.close(drain=True)
        assert [len(f.result()) for f in futures] == [3, 3, 2]

    def test_close_leaves_a_borrowed_catalog_open_and_unhooked(self):
        """A service over a catalog it did not build leaves it (and its
        versions) with the owner, and deregisters its retire listener,
        so serve/close cycles keep no dead result cache reachable."""
        catalog = Catalog()
        catalog.register("main", LIBRARY)
        for _ in range(3):
            with QueryService(catalog, workers=1) as service:
                with service.updater() as up:
                    up.insert_subtree(up.doc.root, parse("<shelf/>").root)
                service.close()
                service.close()                     # idempotent
        assert catalog._retire_listeners == []
        engine = catalog.engine_for(catalog.current("main"))
        assert len(engine.query("//shelf")) == 5
        assert engine.scan_pools is catalog.scan_pools
        catalog.close()


_INDEX_BUILDS = REGISTRY.counter("repro_tag_index_builds_total", "")


def big_library(n_books: int = 800) -> str:
    """A corpus large enough to clear the parallel-scan threshold."""
    return "<library>" + "".join(
        f"<shelf><book><author>a{i % 11}</author>"
        f"<title>t{i}</title></book></shelf>"
        for i in range(n_books)) + "</library>"


class TestParallelismAndIndexLifecycle:
    def test_parallel_request_bit_identical_to_serial(self):
        with QueryService(big_library(), workers=2) as service:
            serial = service.query("//book/title")
            parallel = service.query("//book/title", strategy="parallel",
                                     executor="threads:4")
        assert parallel.result.strategy == "parallel"
        assert serial.snapshot_id == parallel.snapshot_id
        assert [n.nid for n in serial.items] == \
            [n.nid for n in parallel.items]

    def test_result_cache_key_ignores_executor(self):
        # The executor decides where a scan runs, never what it answers
        # (Theorem 1), so a result cached under one answers every other.
        with make_service(workers=1) as service:
            serial = service.query("//book/title")
            threads = service.query("//book/title", executor="threads:4")
            parallel = service.query("//book/title", strategy="parallel",
                                     executor="processes:2")
            again = service.query("//book/title", strategy="parallel",
                                  executor="threads:4")
        assert not serial.cached and threads.cached
        assert not parallel.cached and again.cached    # strategy separates
        assert [n.nid for n in serial.items] == \
            [n.nid for n in parallel.items]

    def test_batch_accepts_executor_overrides(self):
        with QueryService(big_library(), workers=2) as service:
            plain, parallel = service.query_batch([
                {"text": "//book/author"},
                {"text": "//book/author", "strategy": "parallel",
                 "executor": "threads:4"},
            ])
        assert parallel.result.strategy == "parallel"
        assert [n.nid for n in plain.items] == \
            [n.nid for n in parallel.items]

    def test_tag_index_built_at_most_once_per_snapshot(self):
        queries = ["//book[author]/title", "//shelf[book]//author",
                   "//book[title]/author"]
        before = _INDEX_BUILDS.value()
        with make_service(workers=1) as service:
            for q in queries:           # distinct plans, one shared index
                service.query(q, strategy="twigstack")
            assert _INDEX_BUILDS.value() <= before + 1
            with service.updater() as up:
                shelf = [c for c in up.doc.root.children
                         if c.tag is not None][0]
                up.delete_subtree(shelf)
            for q in queries:           # new snapshot: one more build
                service.query(q, strategy="twigstack")
        assert _INDEX_BUILDS.value() <= before + 2
