"""Partition-parallel merged scans: partitioning, bit-identity, edges.

The differential tests here are the operator's acceptance gate: for
every generated document (including skewed single-subtree shapes),
every query and either parallel driver — threads over the object tree,
worker processes over the mmap-shared arena — the per-NoK root lists
and the run tables must equal the serial merged scan's, order and
nested runs included, because Theorem 1 makes partition-order
concatenation reproduce the serial scan exactly.
"""

import pytest

import repro.engine.executor as executor_module
from repro.engine.backend import ExecutionBackend
from repro.errors import DNFError, QueryCancelledError, QueryTimeoutError
from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher, merged_scan
from repro.physical.parallel_scan import ScanPools, parallel_merged_scan
from repro.xmlkit import parse
from repro.xmlkit.partition import (
    DEFAULT_MIN_PARTITION_NODES,
    Partition,
    partition_document,
)
from repro.xmlkit.storage import CancellationToken, ScanCounters
from repro.xpath import parse_xpath
from tests.strategy_cases import DOCUMENTS, WIDE
from tests.test_counters_contract import layouts


def wide_doc(n_books: int = 200) -> str:
    return "<bib>" + "".join(
        f"<shelf><book year='{1990 + i % 20}'><author>a{i % 7}</author>"
        f"<title>t{i}</title><price>{i % 50}</price></book></shelf>"
        for i in range(n_books)) + "</bib>"


def skewed_doc(n_items: int = 300) -> str:
    """One giant child subtree holding nearly every node, plus crumbs —
    the shape that defeats naive top-level-subtree partitioning."""
    giant = "".join(f"<item><name>n{i}</name><price>{i % 9}</price></item>"
                    for i in range(n_items))
    return f"<root><tiny/><giant>{giant}</giant><tail><item/></tail></root>"


def noks_for(path_text: str):
    tree = build_from_path(parse_xpath(path_text))
    return decompose(tree).noks


def fine_partitions(doc, k: int):
    return partition_document(doc, k, min_nodes=1)


class TestPartitioner:
    def test_partitions_tile_the_arena(self):
        doc = parse(wide_doc(200))
        for k in (2, 3, 4, 7):
            parts = partition_document(doc, k, min_nodes=1)
            assert parts[0].start_nid == 0
            assert parts[-1].stop_nid == len(doc.nodes)
            for a, b in zip(parts, parts[1:]):
                assert a.stop_nid == b.start_nid     # disjoint, ordered
                assert b.index == a.index + 1
            assert sum(p.n_nodes for p in parts) == len(doc.nodes)

    def test_single_partition_below_min_nodes(self):
        doc = parse("<a><b/><c/></a>")
        parts = partition_document(doc, 8)
        assert parts == [Partition(0, 0, len(doc.nodes))]

    def test_single_partition_for_serial_parallelism(self):
        doc = parse(wide_doc(200))
        assert len(partition_document(doc, 1, min_nodes=1)) == 1

    def test_default_min_keeps_small_documents_whole(self):
        doc = parse(wide_doc(10))
        assert len(doc.nodes) <= DEFAULT_MIN_PARTITION_NODES
        assert len(partition_document(doc, 4)) == 1

    def test_skewed_single_subtree_is_split(self):
        doc = parse(skewed_doc(300))
        parts = partition_document(doc, 4, min_nodes=1)
        # Without splitting, the giant child would force one partition.
        assert len(parts) > 1
        assert parts[-1].stop_nid == len(doc.nodes)
        assert sum(p.n_nodes for p in parts) == len(doc.nodes)


QUERIES = ["//book", "//book/author", "//shelf//title",
           "//book[@year = '1995']", "//book[price > 25]/title", "//*",
           # root-anchored: the #root NoK holds the chain and is matched
           # once, by the partition that starts at slot 0
           "/bib/shelf/book", "/bib/shelf/book[price > 25]/title"]
SKEW_QUERIES = ["//item", "//item/name", "//item[price = 3]", "//giant//name"]


def nested(nok, scan):
    """A scan's NestedLists of ``nok`` as plain data, each vertex
    asserted to keep the representation (a table only where a run can
    be filled); ``scan`` is ``(root lists, tables)``."""
    results, groups = scan
    return layouts(nok, results[nok.nok_id], groups)


def serial_scan(noks, doc, counters=None):
    groups = {}
    return merged_scan(noks, doc, counters, groups=groups), groups


class LateToken(CancellationToken):
    """Passes the coordinator's up-front check, then behaves normally —
    a token that trips just after the partitions were dispatched."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.armed = False

    def check(self):
        if not self.armed:
            self.armed = True
            return
        super().check()


@pytest.fixture(scope="module")
def pools():
    owned = ScanPools(thread_workers=2, process_workers=2)
    yield owned
    owned.close(wait=True)


def partitioned(driver, pools, doc, path_text, k=4, counters=None,
                per_nok=None, partitions=None, groups=None):
    return parallel_merged_scan(
        noks_for(path_text), doc, counters, per_nok,
        backend=ExecutionBackend(driver, k), pools=pools,
        partitions=(partitions if partitions is not None
                    else fine_partitions(doc, k)), variables={},
        groups=groups)


@pytest.mark.parametrize("driver", ["threads", "processes"])
class TestDriverBitIdentity:
    """Either parallel driver's output == the serial merged scan's,
    match list by match list, counter by counter."""

    def assert_identical(self, driver, pools, doc, path_text, k):
        noks = noks_for(path_text)
        serial = serial_scan(noks, doc)
        groups = {}
        parallel = partitioned(driver, pools, doc, path_text, k,
                               groups=groups), groups
        assert set(serial[0]) == set(parallel[0]) == {n.nok_id for n in noks}
        assert set(serial[1]) == set(groups)
        for nok in noks:
            # Sequences compare order as well as membership, and the
            # nested runs under every root match.
            assert nested(nok, parallel) == nested(nok, serial), \
                (path_text, nok.nok_id, k)

    @pytest.mark.parametrize("path_text", QUERIES)
    def test_wide_document(self, driver, pools, path_text):
        doc = parse(wide_doc(150))
        for k in (2, 3, 5):
            self.assert_identical(driver, pools, doc, path_text, k)

    @pytest.mark.parametrize("path_text", SKEW_QUERIES)
    def test_skewed_single_subtree_document(self, driver, pools, path_text):
        doc = parse(skewed_doc(250))
        for k in (2, 4):
            self.assert_identical(driver, pools, doc, path_text, k)

    def test_recursive_document(self, driver, pools, recursive_doc):
        self.assert_identical(driver, pools, recursive_doc, "//section", 3)

    def test_counters_match_serial_totals(self, driver, pools):
        doc = parse(wide_doc(150))
        serial = ScanCounters()
        merged_scan(noks_for("//book/author"), doc, serial)
        parallel = ScanCounters()
        parts = fine_partitions(doc, 4)
        partitioned(driver, pools, doc, "//book/author", counters=parallel,
                    partitions=parts)
        # Every arena slot is charged exactly once either way; only the
        # scan count differs (one scan per partition).
        assert parallel.nodes_scanned == serial.nodes_scanned
        assert parallel.comparisons == serial.comparisons
        assert parallel.scans_started == len(parts)

    def test_single_partition_degenerates_to_serial(self, driver, pools):
        doc = parse(wide_doc(20))
        counters = ScanCounters()
        noks = noks_for("//book")
        groups = {}
        results = parallel_merged_scan(
            noks, doc, counters, backend=ExecutionBackend(driver, 4),
            pools=pools, variables={}, groups=groups)
        assert counters.scans_started == 1     # fallback path
        book = next(n for n in noks if n.root.name == "book")
        assert nested(book, (results, groups)) == \
            nested(book, serial_scan(noks, doc))

    def test_per_nok_attribution_folds_into_shared(self, driver, pools):
        doc = parse(wide_doc(150))
        counters = ScanCounters()
        per_nok = {}
        partitioned(driver, pools, doc, "//book[price > 25]/title", 3,
                    counters=counters, per_nok=per_nok)
        assert per_nok
        assert counters.comparisons == \
            sum(c.comparisons for c in per_nok.values())
        serial_per_nok = {}
        merged_scan(noks_for("//book[price > 25]/title"), doc,
                    ScanCounters(), serial_per_nok)
        assert sorted(c.comparisons for c in per_nok.values()) == \
            sorted(c.comparisons for c in serial_per_nok.values())

    def test_partial_counters_fold_after_abort(self, driver, pools):
        doc = parse(wide_doc(150))
        counters = ScanCounters(budget=10)
        with pytest.raises(DNFError):
            partitioned(driver, pools, doc, "//book", 3, counters=counters)
        assert counters.budget_trips >= 1
        assert counters.nodes_scanned > 0      # aborted work still counted

    def test_global_budget_is_a_shared_cap_not_per_partition(self, driver,
                                                             pools):
        """Regression for the per-partition budget bug: each of k
        partitions used to receive the *full* budget, so total work
        could reach k x budget before any task tripped.  The cap is now
        a shared counter: a budget below the document size must trip
        even when every individual partition is comfortably under it."""
        doc = parse(wide_doc(300))
        parts = fine_partitions(doc, 4)
        per_partition = max(p.n_nodes for p in parts)
        # Generous for any single partition, insufficient globally.
        budget = per_partition + 50
        assert budget < len(doc.nodes)
        counters = ScanCounters(budget=budget)
        with pytest.raises(DNFError):
            partitioned(driver, pools, doc, "//book", counters=counters,
                        partitions=parts)
        assert counters.budget_trips >= 1
        # Overshoot is bounded by partitions x stride, not by
        # partitions x budget as under the old semantics.
        stride = CancellationToken().stride
        assert counters.nodes_scanned <= budget + len(parts) * stride

    def test_expired_deadline_fails_up_front(self, driver, pools):
        doc = parse(wide_doc(400))
        counters = ScanCounters(
            cancellation=CancellationToken(timeout_ms=0.0))
        with pytest.raises(QueryTimeoutError):
            partitioned(driver, pools, doc, "//book", counters=counters)

    def test_cancelled_token_fails_up_front(self, driver, pools):
        doc = parse(wide_doc(400))
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            partitioned(driver, pools, doc, "//book",
                        counters=ScanCounters(cancellation=token))

    def test_mid_scan_deadline_expires_in_partitions(self, driver, pools):
        doc = parse(wide_doc(400))
        counters = ScanCounters(cancellation=LateToken(timeout_ms=0.0))
        with pytest.raises(QueryTimeoutError):
            partitioned(driver, pools, doc, "//book", counters=counters)
        assert counters.cancellation.armed     # raised by a partition
        assert counters.nodes_scanned > 0


def test_mid_scan_cancel_stops_thread_partitions(pools):
    # Threads only: a worker process sees cancel() through the byte the
    # coordinator's poll loop raises, which small partitions can outrun.
    doc = parse(wide_doc(400))
    token = LateToken()
    token.cancel()
    counters = ScanCounters(cancellation=token)
    with pytest.raises(QueryCancelledError):
        partitioned("threads", pools, doc, "//book", counters=counters)
    assert token.armed
    assert counters.nodes_scanned > 0


@pytest.mark.parametrize("driver", ["serial", "threads", "processes"])
def test_root_named_and_wildcard_noks_share_one_scan(driver, pools):
    """``//book//*`` decomposes into a ``#root``, a named and a wildcard
    NoK; every driver must agree with the single-NoK reference matcher
    on each of them."""
    doc = parse(wide_doc(60))
    noks = noks_for("//book//*")
    assert sorted(n.root.name for n in noks) == ["#root", "*", "book"]
    counters = ScanCounters()
    if driver == "serial":
        scan = serial_scan(noks, doc, counters)
    else:
        groups = {}
        scan = parallel_merged_scan(
            noks, doc, counters, backend=ExecutionBackend(driver, 3),
            pools=pools, partitions=fine_partitions(doc, 3), variables={},
            groups=groups), groups
    assert counters.nodes_scanned == len(doc.nodes)
    for nok in noks:
        matcher = NoKMatcher(nok, doc, variables={})
        want = {nok.nok_id: matcher.matches()}, matcher.groups
        assert nested(nok, scan) == nested(nok, want), nok.root.name


class TestMergedScanEdges:
    """Serial merged-scan edge paths the parallel loop replicates."""

    def test_wildcard_and_named_roots_share_one_scan(self):
        doc = parse(wide_doc(30))
        # One decomposition yields a named NoK (book) and a wildcard
        # NoK (*) with distinct nok_ids sharing one scan.
        noks = [n for n in noks_for("//book//*") if n.root.name != "#root"]
        book_nok = next(n for n in noks if n.root.name == "book")
        star_nok = next(n for n in noks if n.root.name == "*")
        counters = ScanCounters()
        scan = serial_scan(noks, doc, counters)
        assert counters.scans_started == 1
        # Dispatch must offer a "book" element to BOTH the named and the
        # wildcard NoK, and each list must stay in document order.
        book_nids = nested(book_nok, scan)
        star_nids = nested(star_nok, scan)
        assert book_nids == sorted(book_nids)
        assert star_nids == sorted(star_nids)
        assert len(book_nids) == 30
        assert set(book_nids) <= set(star_nids)
        # Individual NoKMatcher runs over the same NoKs agree exactly.
        for nok in (book_nok, star_nok):
            assert nested(nok, serial_scan([nok], doc)) == nested(nok, scan)

    def test_wildcard_only_dispatch(self):
        doc = parse("<a><b/><c/></a>")
        star = noks_for("//*")
        star_nok = next(n for n in star if n.root.name == "*")
        results = merged_scan([star_nok], doc)
        assert len(results[star_nok.nok_id]) == 3

    def test_budget_trip_still_folds_per_nok_counters(self):
        doc = parse(wide_doc(150))
        noks = [n for n in noks_for("//book/author")
                if n.root.name != "#root"]
        counters = ScanCounters(budget=50)
        per_nok = {}
        with pytest.raises(DNFError):
            merged_scan(noks, doc, counters, per_nok)
        # The finally block folded the partial per-NoK match work into
        # the shared totals despite the abort.
        assert counters.budget_trips == 1
        assert per_nok
        assert counters.comparisons == \
            sum(c.comparisons for c in per_nok.values())
        assert counters.comparisons > 0


class TestEngineParallelStrategy:
    def make_engine(self, xml, pools=None):
        from repro.engine.session import Engine

        engine = Engine(parse(xml))
        engine.scan_pools = pools
        return engine

    @pytest.mark.parametrize("xml", [WIDE, DOCUMENTS["recursive"]],
                             ids=["wide", "recursive"])
    def test_auto_never_plans_parallel(self, pools, xml):
        # A plan reads the query and the document, never the executor:
        # explain agrees with every run, and one plan serves them all.
        engine = self.make_engine(xml, pools)
        text = "//a/b"
        explained = engine.explain(text).splitlines()[0]
        results = [engine.query(text, executor=executor) for executor in
                   ("serial", "threads:4", "processes:2")]
        assert {result.strategy for result in results} \
            == {explained.split()[1]}
        assert results[0].strategy != "parallel"
        assert len({result.serialize() for result in results}) == 1
        assert len(engine.plan_cache) == 1
        prepared = engine.prepare(text)
        override = prepared.execute(executor="threads:4", trace=True)
        assert override.trace.root.attrs["plan-cache"] == "prepared"
        assert override.strategy == results[0].strategy

    def test_explicit_parallel_strategy(self):
        engine = self.make_engine(wide_doc(100))
        result = engine.query("//book", strategy="parallel")
        assert "parallel" in result.plan
        assert len(result.items) == 100

    def test_explicit_parallel_under_the_serial_executor(self):
        # strategy="parallel" always partitions: the serial spec still
        # cuts the scan two ways, on threads.
        engine = self.make_engine(wide_doc(600))
        serial = engine.query("//book/title").items
        result = engine.query("//book/title", strategy="parallel",
                              executor="serial", trace=True)
        assert "partition-parallel scan over 4 partitions" in result.plan
        assert [n.nid for n in result.items] == [n.nid for n in serial]
        spans = [span for _, span in result.trace.walk()
                 if span.name == "partition-scan"]
        assert len(spans) == 4
        assert {span.attrs["backend"] for span in spans} == {"threads"}

    def test_explicit_parallel_on_root_anchored_chains(
            self, pools, monkeypatch):
        # The retired PL004 refused these: the #root NoK holds a local
        # chain.  The partition at slot 0 matches it once, so every cut
        # answers like the serial plans, on both drivers.
        monkeypatch.setattr(executor_module, "partition_document",
                            fine_partitions)
        engine = self.make_engine("<r>" + "".join(
            f"<a><b>{i % 5}</b><c><b>{i}</b></c></a>"
            for i in range(40)) + "</r>", pools)
        for text in ("/r/a/b", "/r/a[b]/c//b", "/r/a[b = '3']/b",
                     "for $a in /r/a, $b in $a//b return $b"):
            naive = engine.query(text, strategy="naive").serialize()
            assert naive, text
            assert engine.query(text, strategy="pipelined").serialize() \
                == naive, text
            for executor in ("threads:2", "processes:2", "threads:4"):
                result = engine.query(text, strategy="parallel",
                                      executor=executor)
                assert "partition-parallel scan over" in result.plan
                assert result.serialize() == naive, (text, executor)

    def test_prepared_query_pins_executor(self, pools):
        engine = self.make_engine(wide_doc(600), pools)
        prepared = engine.prepare("//book", strategy="parallel",
                                  executor="threads:4")
        assert prepared.executor.key == "threads:4"
        pinned = prepared.execute(trace=True)
        # An override changes where the partitions run, not the plan.
        override = prepared.execute(executor="processes:2", trace=True)
        for result, backend, k in ((pinned, "threads", 4),
                                   (override, "processes", 2)):
            assert result.trace.root.attrs["plan-cache"] == "prepared"
            assert result.strategy == "parallel"
            spans = [span for _, span in result.trace.walk()
                     if span.name == "partition-scan"]
            assert [span.attrs["backend"] for span in spans] == [backend] * k
        assert [n.nid for n in override.items] == \
            [n.nid for n in pinned.items]

    def test_parallelism_kwarg_is_removed(self):
        # The one-release parallelism= → executor= shim is gone; the
        # old spelling fails like any other unknown keyword.
        engine = self.make_engine(wide_doc(600))
        with pytest.raises(TypeError, match="parallelism"):
            engine.query("//book", parallelism=4)
        with pytest.raises(TypeError, match="parallelism"):
            engine.prepare("//book", parallelism=4)

    def test_skewed_document_through_the_engine(self):
        engine = self.make_engine(skewed_doc(900))
        serial = engine.query("//item/name").items
        parallel = engine.query("//item/name", strategy="parallel",
                                executor="threads:4")
        assert parallel.strategy == "parallel"
        assert [n.nid for n in serial] == [n.nid for n in parallel.items]

    def test_partition_spans_in_trace(self):
        engine = self.make_engine(wide_doc(600))
        result = engine.query("//book", strategy="parallel",
                              executor="threads:4", trace=True)
        assert result.strategy == "parallel"
        names = [span.name for _, span in result.trace.walk()]
        assert "partition-scan" in names
