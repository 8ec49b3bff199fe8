"""The process execution backend: end-to-end differential across all
three backends, crash containment, resource lifecycle.

``executor="processes"`` runs the merged-scan kernel in worker
processes over the mmap-shared arena (:mod:`repro.xmlkit.arena`).  The
operator-level contract it shares with the thread driver — match lists,
counters, budget, deadline — is ``tests/test_parallel_scan.py``'s
driver-parametrised suite; what is here is only what a process pool
adds: a dying or failing worker must surface as a clean error, and
pools, fds and arena files must not outlive their owner.
"""

import glob
import multiprocessing
import os
import tempfile

import pytest

from repro.algebra.nested_list import sexpr
from repro.datagen.workload import DATASETS
from repro.engine import Engine
from repro.engine.backend import ExecutionBackend
from repro.errors import ExecutionError
from repro.pattern import build_from_path, decompose
from repro.physical import process_scan
from repro.physical.nok_merge import merged_scan
from repro.physical.parallel_scan import ScanPools, parallel_merged_scan
from repro.xmlkit import parse
from repro.xmlkit.partition import partition_document
from repro.xpath import parse_xpath
from tests.test_counters_contract import layouts


def wide_doc(n_books: int = 300) -> str:
    return "<bib>" + "".join(
        f"<shelf><book year='{1990 + i % 20}'><author>a{i % 7}</author>"
        f"<title>t{i}</title><price>{i % 50}</price></book></shelf>"
        for i in range(n_books)) + "</bib>"


def arena_files() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      "repro-arena-*.btra")))


def noks_for(path_text: str):
    return decompose(build_from_path(parse_xpath(path_text))).noks


def fine_partitions(doc, k: int):
    return partition_document(doc, k, min_nodes=1)


def scan_on(pools, doc, path_text, k=4):
    """``path_text`` over ``k`` fine partitions on the process pool."""
    return parallel_merged_scan(noks_for(path_text), doc,
                                backend=ExecutionBackend("processes", k),
                                pools=pools,
                                partitions=fine_partitions(doc, k), variables={})


class TestWorkloadDifferential:
    """Every datagen workload query under all three backends, end to
    end through the engine (plan choice, scan, FLWOR pipeline,
    serialization): ``auto`` on the serial leg, ``strategy="parallel"``
    (a partitioned scan, whatever the document size) on the other two."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_three_backends_serialize_identically(self, name):
        dataset = DATASETS[name]
        doc = dataset.generate(scale=0.1)
        pools = ScanPools(thread_workers=2, process_workers=2)
        try:
            for spec in dataset.queries:
                engine = Engine(doc)
                engine.scan_pools = pools
                serial = engine.query(spec.text).serialize()
                threads, processes = (
                    engine.query(spec.text, strategy="parallel",
                                 executor=executor)
                    for executor in ("threads:2", "processes:2"))
                assert threads.strategy == processes.strategy == "parallel"
                assert serial == threads.serialize() \
                    == processes.serialize(), (name, spec.text)
        finally:
            pools.close(wait=True)


class TestCompiledPlansCrossTheProcessBoundary:
    """A plan's compiled matchers live on its NoK trees; the NoKs still
    pickle for the workers after the parent process compiled (and ran)
    them, and every driver answers the same."""

    def test_compiled_noks_still_pickle(self):
        import pickle

        doc = parse(wide_doc(60))
        noks = noks_for("//shelf/book[price < 20][author != 'a3']/title")
        pools = ScanPools(process_workers=2)
        try:
            outputs = []
            for _ in range(2):
                serial_groups, shipped_groups = {}, {}
                serial = merged_scan(noks, doc, groups=serial_groups)
                assert all(nok.matcher is not None for nok in noks)
                shipped = parallel_merged_scan(
                    noks, doc, backend=ExecutionBackend("processes", 2),
                    pools=pools, partitions=fine_partitions(doc, 4),
                    variables={}, groups=shipped_groups)
                outputs += [(serial, serial_groups),
                            (shipped, shipped_groups)]
            roots = {nok.nok_id: nok.root for nok in noks}
            rendered = [{nok_id: [sexpr(match, roots[nok_id], groups,
                                        lambda n: str(n.nid))
                                  for match in matches]
                         for nok_id, matches in out.items()}
                        for out, groups in outputs]
            assert rendered == [rendered[0]] * 4
            assert len(rendered[0][1]) > 5
            copies = pickle.loads(pickle.dumps(noks))
            assert all(nok.matcher is None for nok in copies)
            assert all(v.tests is None for nok in copies
                       for v in nok.vertices)
        finally:
            pools.close(wait=True)

    def test_one_plan_alternating_serial_and_processes(self):
        doc = parse(wide_doc(120))
        text = ("for $s in //shelf, $b in $s//book[price < 20] "
                "where $b/@year = '1995' or $b/author = 'a3' "
                "return <hit>{$b/title}</hit>")
        engine = Engine(doc)
        engine.scan_pools = pools = ScanPools(process_workers=2)
        try:
            expected = engine.query(text, strategy="naive").serialize()
            prepared = engine.prepare(text, strategy="parallel")
            runs = []
            for _ in range(2):
                for executor in ("serial", "processes:2") * 2:
                    result = prepared.execute(executor=executor)
                    runs.append((result.serialize(),
                                 result.counters.comparisons))
                # A nested-loop run matches the inner NoK in this
                # process, through the same NoK objects' matchers.
                assert engine.query(text, strategy="bnlj").serialize() \
                    == expected
            assert runs == [(expected, runs[0][1])] * 8
        finally:
            pools.close(wait=True)


def _crash_task(*args, **kwargs):
    os._exit(13)


def _buggy_task(*args, **kwargs):
    raise ValueError("bug in the worker")


class TestWorkerCrash:
    def test_crash_raises_clean_error_and_pool_recovers(self):
        doc = parse(wide_doc(200))
        pools = ScanPools(process_workers=2)
        original = process_scan._scan_partition_task
        # Patch BEFORE the pool forks so the workers inherit the crash.
        process_scan._scan_partition_task = _crash_task
        try:
            with pytest.raises(ExecutionError, match="crashed"):
                scan_on(pools, doc, "//book")
        finally:
            process_scan._scan_partition_task = original
        # The broken pool was discarded; the next scan rebuilds and runs.
        results = scan_on(pools, doc, "//book")
        noks = noks_for("//book")
        serial = merged_scan(noks, doc)
        book = next(n for n in noks if n.root.name == "book")
        assert layouts(book, results[book.nok_id], {}) == \
            layouts(book, serial[book.nok_id], {})
        pools.close(wait=True)

    def test_task_that_raises_fails_the_query(self):
        # A worker-side bug must fail the query, not drop its partition
        # from the answer.
        doc = parse(wide_doc(200))
        pools = ScanPools(process_workers=2)
        original = process_scan._scan_partition_task
        process_scan._scan_partition_task = _buggy_task
        try:
            with pytest.raises(ExecutionError, match="bug in the worker"):
                scan_on(pools, doc, "//book")
        finally:
            process_scan._scan_partition_task = original
            pools.close(wait=True)


class TestResourceLifecycle:
    def test_fifty_databases_leak_no_fds_or_processes(self):
        import repro

        xml = wide_doc(30)

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        def children() -> int:
            return len(multiprocessing.active_children())

        # Warm-up: import side effects, pytest plumbing.
        with repro.connect(xml) as db:
            db.query("//book/title")
        fd_before, procs_before = open_fds(), children()
        for _ in range(50):
            with repro.connect(xml) as db:
                db.query("//book/title")
                db.query("//book/title", executor="threads:2")
        assert children() <= procs_before
        assert open_fds() <= fd_before + 4     # allowance for test noise

    def test_database_close_releases_the_arena_file(self):
        import repro

        db = repro.connect(wide_doc(30))
        path = db.doc.derived.arena_file()
        assert os.path.exists(path)
        db.close()
        assert not os.path.exists(path)

    @pytest.mark.parametrize("mutation", ["insert", "delete", "bypass"])
    def test_update_replaces_the_arena_file_workers_map(self, mutation):
        """The arena file is a view of one document version: after an
        update the workers must map the new version's file, and the old
        one is unlinked at the update, not at ``close()``."""
        import repro

        query = "//book[price = 3]/title"
        before = arena_files()
        db = repro.connect(wide_doc(600))

        def scanned() -> str:
            return db.query(query, strategy="parallel",
                            executor="processes:2").serialize()

        assert scanned() == db.query(query).serialize()
        (stale,) = arena_files() - before
        shelf = db.doc.root.children[0]
        if mutation == "insert":
            with db.updater() as up:
                up.insert_subtree(shelf, parse(
                    "<book><title>fresh</title><price>3</price></book>"
                ).root, 0)
            moved = "<title>fresh</title>"
        elif mutation == "delete":
            with db.updater() as up:
                up.delete_subtree(db.doc.root.children[3])
            moved = "<title>t3</title>"
        else:   # a mutation no updater saw, then the one drop call
            node = db.doc.root.children[4].children[0].children[2].children[0]
            node.text = "3"
            while node is not None:
                node._string_value = None
                node = node.parent
            db.doc.drop_derived()
            moved = "<title>t4</title>"
        unlinked_by_the_update = not os.path.exists(stale)
        after = scanned()
        assert after == db.query(query, strategy="naive").serialize()
        assert (moved in after) == (mutation != "delete")
        assert unlinked_by_the_update and len(arena_files() - before) == 1
        db.close()
        assert arena_files() <= before

    def test_scan_pools_close_is_idempotent(self):
        pools = ScanPools()
        pools.thread_pool()
        pools.close(wait=True)
        pools.close(wait=True)
