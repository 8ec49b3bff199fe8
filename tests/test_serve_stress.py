"""Differential stress test: snapshot isolation under concurrent load.

The serving contract (ISSUE PR-4 acceptance): N writer threads publish
update batches while M reader threads hammer the service; every served
result must be *bit-identical* to a serial replay of the same query on
the exact snapshot the service says it used.  Any torn read, stale plan
or cache aliasing shows up as a serialization mismatch.

``REPRO_STRESS_SECONDS`` (default 5) bounds the wall time; CI runs the
same test under ``PYTHONDEVMODE=1`` in the concurrency-smoke job.
``REPRO_STRESS_PARALLELISM`` > 1 makes every read request ask for
``strategy="parallel"`` on that many threads over a larger corpus (the
scan-driver jobs run with 4): the serial-replay comparison then
doubles as the Theorem-1 bit-identity check under concurrent publishes.
"""

import os
import random
import threading
import time

from repro.engine.session import Engine
from repro.engine.database import Database
from repro.serve import QueryService
from repro.xmlkit.tree import DocumentBuilder

STRESS_SECONDS = float(os.environ.get("REPRO_STRESS_SECONDS", "5"))
STRESS_PARALLELISM = int(os.environ.get("REPRO_STRESS_PARALLELISM", "1"))
#: What every read asks for: partitioned scans, or the defaults.
PARALLEL_OPTIONS = ({"strategy": "parallel",
                     "executor": f"threads:{STRESS_PARALLELISM}"}
                    if STRESS_PARALLELISM > 1 else {})
N_WRITERS = 4
N_READERS = 8

QUERIES = (
    "//book/title",
    "//book[author]/title",
    "//shelf/book/author",
    "for $b in //book where $b/author return $b/title",
    "//shelf[book]",
)


def build_library(shelves: int = 3, books: int = 4):
    builder = DocumentBuilder()
    builder.start_element("library")
    serial = 0
    for s in range(shelves):
        builder.start_element("shelf", {"genre": f"g{s}"})
        for _ in range(books):
            serial += 1
            builder.start_element("book", {"id": f"b{serial}"})
            builder.element("author", f"author-{serial}")
            builder.element("title", f"title-{serial}")
            builder.end_element()
        builder.end_element()
    builder.end_element()
    return builder.finish()


def make_book(serial: int):
    builder = DocumentBuilder()
    builder.start_element("book", {"id": f"w{serial}"})
    builder.element("author", f"author-w{serial}")
    builder.element("title", f"title-w{serial}")
    builder.end_element()
    return builder.finish().root


def elems(node, tag=None):
    return [c for c in node.children
            if c.tag is not None and (tag is None or c.tag == tag)]


def test_concurrent_readers_match_serial_replay_exactly():
    # With intra-query parallelism requested, use a corpus big enough
    # for the partitioner to cut.
    db = Database(build_library() if STRESS_PARALLELISM <= 1
                  else build_library(shelves=40, books=30))
    service = QueryService(db, workers=N_READERS, max_queue=256,
                           result_cache=512 * 1024)
    deadline = time.monotonic() + STRESS_SECONDS
    stop = threading.Event()
    violations: list[str] = []
    counts = {"reads": 0, "writes": 0}
    lock = threading.Lock()

    def writer(seed: int) -> None:
        rng = random.Random(seed)
        serial = seed * 1_000_000
        while not stop.is_set():
            serial += 1
            try:
                with db.updater() as up:
                    shelves = elems(up.doc.root, "shelf")
                    shelf = rng.choice(shelves)
                    books = elems(shelf, "book")
                    # Grow-biased so deletes never run the corpus dry.
                    if len(books) > 2 and rng.random() < 0.4:
                        up.delete_subtree(rng.choice(books))
                    else:
                        up.insert_subtree(shelf, make_book(serial))
                with lock:
                    counts["writes"] += 1
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                violations.append(f"writer: {exc!r}")
                return
            time.sleep(rng.uniform(0.0, 0.002))

    def reader(seed: int) -> None:
        rng = random.Random(10_000 + seed)
        while not stop.is_set():
            text = rng.choice(QUERIES)
            try:
                served = service.query(
                    text, timeout_ms=30_000, **PARALLEL_OPTIONS)
                if PARALLEL_OPTIONS \
                        and served.result.strategy != "parallel":
                    violations.append(f"{text!r} ran "
                                      f"{served.result.strategy}")
                    return
                # Differential check: replay serially on the *pinned*
                # snapshot the service claims it used.  Snapshots are
                # immutable, so the replay must be bit-identical.
                replay = Engine(served.snapshot.doc).query(text)
                if served.serialize() != replay.serialize():
                    violations.append(
                        f"isolation violation: {text!r} on snapshot "
                        f"{served.snapshot_id}: served "
                        f"{served.serialize()[:120]!r} != replay "
                        f"{replay.serialize()[:120]!r}")
                    return
                with lock:
                    counts["reads"] += 1
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                violations.append(f"reader: {exc!r}")
                return

    threads = [threading.Thread(target=writer, args=(i,), daemon=True)
               for i in range(N_WRITERS)]
    threads += [threading.Thread(target=reader, args=(i,), daemon=True)
                for i in range(N_READERS)]
    for thread in threads:
        thread.start()
    while time.monotonic() < deadline and not violations:
        time.sleep(0.05)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    service.close()

    assert not violations, violations[:5]
    assert counts["writes"] > 0, "no update batch ever committed"
    assert counts["reads"] > 0, "no query was ever served"
    # Every commit published a snapshot; liveness bookkeeping must not
    # leak: at most the current + currently pinned snapshots stay live.
    publishes = counts["writes"]
    assert db.current().snapshot_id >= publishes
    live = {db.current().snapshot_id, *db._pins}
    assert len(live) <= 1 + N_READERS
    assert set(db._engines) <= live


def test_plan_and_result_caches_stay_coherent_under_churn():
    """Tight loop over one query while writers churn: every answer must
    match its snapshot even when served from the result cache."""
    db = Database(build_library())
    service = QueryService(db, workers=4, result_cache=256 * 1024)
    stop = threading.Event()
    violations: list[str] = []

    def writer() -> None:
        serial = 0
        while not stop.is_set():
            serial += 1
            with db.updater() as up:
                up.insert_subtree(elems(up.doc.root, "shelf")[0],
                                  make_book(serial))

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    deadline = time.monotonic() + min(STRESS_SECONDS, 2.0)
    while time.monotonic() < deadline:
        served = service.query("//book/title", timeout_ms=30_000)
        expected = len(Engine(served.snapshot.doc).query("//book/title"))
        if len(served) != expected:
            violations.append(
                f"snapshot {served.snapshot_id} (cached={served.cached}): "
                f"{len(served)} != {expected}")
            break
    stop.set()
    thread.join(timeout=30)
    service.close()
    assert not violations, violations


def test_cache_churn_under_byte_pressure():
    """Cache-churn phase: a tiny byte budget forces constant eviction
    while writers retire snapshots underneath.

    Every miss re-executes; the differential check asserts the fresh
    result is bit-identical to a serial replay on the served snapshot —
    so eviction and retire-invalidation can never surface a wrong
    answer, only a recomputation.  The storage's audit counters must
    show zero entries surviving any snapshot retire.
    """
    db = Database(build_library())
    # A budget of ~4 entries' bytes: LRU eviction stays hot.
    service = QueryService(db, workers=4, result_cache=2048)
    storage = service.result_cache
    stop = threading.Event()
    violations: list[str] = []

    def writer() -> None:
        serial = 0
        while not stop.is_set():
            serial += 1
            with db.updater() as up:
                up.insert_subtree(elems(up.doc.root, "shelf")[0],
                                  make_book(serial))
            time.sleep(0.002)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    deadline = time.monotonic() + min(STRESS_SECONDS, 2.0)
    served_cached = served_fresh = 0
    while time.monotonic() < deadline:
        for text in QUERIES:
            served = service.query(text, timeout_ms=30_000)
            if served.cached:
                served_cached += 1
                continue
            served_fresh += 1
            replay = Engine(served.snapshot.doc).query(text)
            if served.serialize() != replay.serialize():
                violations.append(
                    f"miss replay mismatch: {text!r} on snapshot "
                    f"{served.snapshot_id}")
                break
        if violations:
            break
    stop.set()
    thread.join(timeout=30)
    service.close()

    assert not violations, violations
    assert served_fresh > 0, "cache churn never forced a re-execution"
    stats = storage.stats()
    # Byte-pressure eviction and retire-invalidation actually ran.
    assert stats["evictions"] > 0, stats
    assert stats["audit"]["snapshots_invalidated"] > 0, stats
    # The tentpole invariant: no entry of any retired snapshot survived
    # its invalidation (the audit scans the whole cache per retire).
    assert stats["audit"]["survivors"] == 0, stats
    # Byte accounting stayed consistent under the churn.
    assert stats["bytes"] <= stats["capacity_bytes"]
