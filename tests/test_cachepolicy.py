"""Unit tests for the result-cache storage
(:mod:`repro.serve.cachepolicy`): byte accounting, LRU-by-bytes
eviction, TTL, admission, the snapshot-invalidation audit, ``clear()``
and the ``result_cache=`` spec grammar.

The serving-layer integration (retire hooks, service stats threading)
is covered in ``test_serve_service.py``; everything here drives the
storage directly with a fake clock and fake results.
"""

import pytest

from repro.errors import UsageError
from repro.serve.cachepolicy import (
    DEFAULT_RESULT_CACHE_BYTES,
    ENTRY_OVERHEAD_BYTES,
    ResultCacheStorage,
    resolve_result_cache,
)


class FakeResult:
    """Stands in for a QueryResult: only ``serialize()`` matters."""

    def __init__(self, payload: str) -> None:
        self.payload = payload

    def serialize(self) -> str:
        return self.payload


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def key(n: int, snapshot: int = 1, doc: str = "main") -> tuple:
    return (doc, snapshot, f"//q{n}", "auto", "serial")


def make_storage(max_bytes: int = 4096, **kwargs) -> ResultCacheStorage:
    kwargs.setdefault("clock", FakeClock())
    return ResultCacheStorage(max_bytes, **kwargs)


class TestByteAccounting:
    def test_entries_charged_serialized_size_plus_overhead(self):
        storage = make_storage()
        assert storage.put(key(1), FakeResult("x" * 100))
        assert storage.entry_bytes(key(1)) == 100 + ENTRY_OVERHEAD_BYTES
        assert storage.put(key(2), FakeResult(""))
        # Zero-byte payloads still pay the fixed overhead.
        assert storage.entry_bytes(key(2)) == ENTRY_OVERHEAD_BYTES
        assert storage.stats()["bytes"] == 100 + 2 * ENTRY_OVERHEAD_BYTES

    def test_caller_supplied_nbytes_wins(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x" * 100), nbytes=999)
        assert storage.entry_bytes(key(1)) == 999

    def test_replacing_a_key_releases_the_old_charge(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x" * 100))
        storage.put(key(1), FakeResult("y" * 10))
        assert len(storage) == 1
        assert storage.stats()["bytes"] == 10 + ENTRY_OVERHEAD_BYTES

    def test_multibyte_text_is_charged_in_utf8_bytes(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("é" * 10))   # 2 bytes each
        assert storage.entry_bytes(key(1)) == 20 + ENTRY_OVERHEAD_BYTES


class TestEviction:
    def test_lru_by_bytes_evicts_oldest_first(self):
        storage = make_storage(max_bytes=3 * ENTRY_OVERHEAD_BYTES)
        for n in (1, 2, 3):
            assert storage.put(key(n), FakeResult(""))
        assert len(storage) == 3
        storage.put(key(4), FakeResult(""))               # over budget
        assert storage.get(key(1)) is None                # oldest left
        assert storage.get(key(4)) is not None
        assert storage.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        storage = make_storage(max_bytes=2 * ENTRY_OVERHEAD_BYTES)
        storage.put(key(1), FakeResult(""))
        storage.put(key(2), FakeResult(""))
        storage.get(key(1))                               # 1 is now MRU
        storage.put(key(3), FakeResult(""))
        assert storage.get(key(1)) is not None
        assert storage.get(key(2)) is None

    def test_one_large_entry_evicts_many_small(self):
        storage = make_storage(max_bytes=2048)
        for n in range(4):
            storage.put(key(n), FakeResult("x" * 100))
        storage.put(key(9), FakeResult("x" * 1500))
        stats = storage.stats()
        assert stats["bytes"] <= stats["capacity_bytes"]
        assert storage.get(key(9)) is not None

    def test_max_entries_cap_still_applies(self):
        storage = make_storage(max_entries=2)
        for n in (1, 2, 3):
            storage.put(key(n), FakeResult(""))
        assert len(storage) == 2
        assert storage.get(key(1)) is None

    def test_entry_larger_than_budget_is_rejected(self):
        storage = make_storage(max_bytes=512)
        assert not storage.put(key(1), FakeResult("x" * 4096))
        assert len(storage) == 0
        assert storage.stats()["rejected"] == 1

    def test_disabled_storage_never_admits(self):
        storage = make_storage(max_bytes=0)
        assert not storage.enabled
        assert not storage.put(key(1), FakeResult("x"))
        assert storage.get(key(1)) is None

    def test_clear_drops_entries_and_keeps_lifetime_counters(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x"))
        storage.get(key(1))                               # hit
        storage.get(key(2))                               # miss
        assert storage.clear() == 1
        stats = storage.stats()
        assert stats["size"] == 0 and stats["bytes"] == 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == 0.5
        assert storage.get(key(1)) is None


class TestTTL:
    def test_entries_expire_lazily_on_get(self):
        clock = FakeClock()
        storage = ResultCacheStorage(ttl_s=10.0, clock=clock)
        storage.put(key(1), FakeResult("x"))
        clock.now = 9.0
        assert storage.get(key(1)) is not None
        clock.now = 10.0
        assert storage.get(key(1)) is None                # TTL is [0, ttl)
        stats = storage.stats()
        assert stats["expirations"] == 1
        assert stats["size"] == 0 and stats["bytes"] == 0

    def test_eviction_purges_expired_before_lru(self):
        clock = FakeClock()
        storage = ResultCacheStorage(
            max_bytes=3 * ENTRY_OVERHEAD_BYTES, ttl_s=5.0, clock=clock)
        storage.put(key(1), FakeResult(""))
        clock.now = 6.0                                   # 1 is now stale
        storage.put(key(2), FakeResult(""))
        storage.put(key(3), FakeResult(""))
        storage.put(key(4), FakeResult(""))               # needs room
        stats = storage.stats()
        # The stale entry went as an *expiration*, sparing a live one.
        assert stats["expirations"] == 1
        assert stats["evictions"] == 0
        assert storage.get(key(2)) is not None

    def test_no_ttl_means_no_expiry(self):
        clock = FakeClock()
        storage = ResultCacheStorage(clock=clock)
        storage.put(key(1), FakeResult("x"))
        clock.now = 1e9
        assert storage.get(key(1)) is not None


class TestAdmissionPolicy:
    def test_max_entry_bytes_bounds_admission(self):
        storage = make_storage(max_entry_bytes=ENTRY_OVERHEAD_BYTES + 10)
        assert storage.put(key(1), FakeResult("x" * 10))
        assert not storage.put(key(2), FakeResult("x" * 11))
        assert storage.stats()["rejected"] == 1

    def test_policy_knob_validation(self):
        for ttl_s in (0, -1.0, float("nan")):
            with pytest.raises(UsageError, match="ttl_s"):
                ResultCacheStorage(ttl_s=ttl_s)
        with pytest.raises(UsageError, match="max_entry_bytes"):
            ResultCacheStorage(max_entry_bytes=-1)


class TestSnapshotInvalidation:
    def test_indexed_drop_with_clean_audit(self):
        storage = make_storage()
        for n in range(3):
            storage.put(key(n, snapshot=1), FakeResult("x"))
        storage.put(key(9, snapshot=2), FakeResult("y"))
        dropped = storage.invalidate_snapshot("main", 1)
        assert dropped == 3
        stats = storage.stats()
        assert stats["size"] == 1                         # snapshot 2 stays
        assert stats["invalidated"] == 3
        assert stats["audit"]["snapshots_invalidated"] == 1
        assert stats["audit"]["survivors"] == 0
        assert storage.get(key(0, snapshot=1)) is None
        assert storage.get(key(9, snapshot=2)) is not None

    def test_invalidation_is_per_document(self):
        storage = make_storage()
        storage.put(key(1, doc="a"), FakeResult("x"))
        storage.put(key(1, doc="b"), FakeResult("x"))
        assert storage.invalidate_snapshot("a", 1) == 1
        assert storage.get(key(1, doc="b")) is not None

    def test_audit_catches_an_index_hole(self):
        """Sabotage the snapshot index the way the pre-split bug class
        would (an entry the index forgot): the audit's full scan must
        still drop it and count the survivor."""
        storage = make_storage()
        storage.put(key(1), FakeResult("x"))
        storage.put(key(2), FakeResult("y"))
        storage._by_snapshot[("main", 1)].discard(key(2))  # the "bug"
        dropped = storage.invalidate_snapshot("main", 1)
        assert dropped == 2                               # audit caught it
        stats = storage.stats()
        assert stats["audit"]["survivors"] == 1
        assert stats["size"] == 0 and stats["bytes"] == 0

    def test_unknown_snapshot_is_a_noop_but_still_audited(self):
        storage = make_storage()
        storage.put(key(1), FakeResult("x"))
        assert storage.invalidate_snapshot("main", 777) == 0
        stats = storage.stats()
        assert stats["audit"]["snapshots_invalidated"] == 1
        assert stats["audit"]["survivors"] == 0
        assert stats["size"] == 1


class TestResolveSpec:
    def test_none_builds_the_default(self):
        storage = resolve_result_cache(None)
        assert storage.max_bytes == DEFAULT_RESULT_CACHE_BYTES
        assert storage.max_entries is None
        assert storage.ttl_s is None and storage.max_entry_bytes is None

    @pytest.mark.parametrize(
        "spec", [0, False, "off", "none", "disabled", "0", " OFF ", "0kb",
                 "0 mb", "0b", {"max_bytes": "0kb"}, {"max_bytes": "0 MB"}])
    def test_disabling_spellings(self, spec):
        assert resolve_result_cache(spec) is None

    @pytest.mark.parametrize("spec, expected", [
        (65536, 65536),
        ("64kb", 64 * 1024),
        ("16mb", 16 * 1024 ** 2),
        ("1.5kb", 1536),
        ("2gb", 2 * 1024 ** 3),
        ("4096", 4096),
        ("512b", 512),
        (True, DEFAULT_RESULT_CACHE_BYTES),     # "on", not a one-byte cache
    ])
    def test_byte_budget_spellings(self, spec, expected):
        assert resolve_result_cache(spec).max_bytes == expected

    def test_mapping_knobs(self):
        storage = resolve_result_cache({
            "max_bytes": "1mb", "max_entries": 32,
            "ttl_s": 2.5, "max_entry_bytes": 1024})
        assert storage.max_bytes == 1024 ** 2
        assert storage.max_entries == 32
        assert storage.ttl_s == 2.5
        assert storage.max_entry_bytes == 1024
        # Both byte knobs take the same unit spellings.
        assert resolve_result_cache(
            {"max_entry_bytes": "1kb"}).max_entry_bytes == 1024

    def test_mapping_zeroes_disable(self):
        assert resolve_result_cache({"max_entries": 0}) is None
        assert resolve_result_cache({"max_bytes": 0}) is None

    def test_storage_spec_is_used_as_is(self):
        storage = ResultCacheStorage(1024)
        assert resolve_result_cache(storage) is storage

    def test_unknown_knob_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown result_cache"):
            resolve_result_cache({"size": 64})

    def test_bad_specs_are_usage_errors(self):
        with pytest.raises(UsageError, match="byte budget"):
            resolve_result_cache(-1)
        for text in ("sixty-four kb", "infkb", "nankb", "1e999mb"):
            with pytest.raises(UsageError, match="cannot parse"):
                resolve_result_cache(text)
        with pytest.raises(UsageError, match="cannot interpret"):
            resolve_result_cache(3.14)
        # Wrong-typed knobs are usage errors, not a bare TypeError from
        # a comparison; ``bool`` is not a count.
        for knobs in ({"max_entries": "5"}, {"max_entries": True},
                      {"ttl_s": "10"}, {"ttl_s": True},
                      {"max_bytes": None}, {"max_bytes": True},
                      {"max_bytes": 1.5}, {"max_entry_bytes": 2.0},
                      {"max_entry_bytes": "0kb"}):
            with pytest.raises(UsageError, match="result_cache|must be"):
                resolve_result_cache(knobs)


class TestResultCacheSizeShim:
    def test_result_cache_size_is_a_type_error(self):
        # The entry-count ``result_cache_size=`` shim completed its
        # one-release deprecation cycle: like any unknown keyword it is
        # a plain TypeError now (``result_cache={"max_entries": N}`` is
        # the spelling).
        import repro
        from repro.serve.service import QueryService

        with pytest.raises(TypeError, match="result_cache_size"):
            QueryService("<a/>", result_cache_size=64)
        with repro.connect("<a/>") as db:
            with pytest.raises(TypeError, match="result_cache_size"):
                db.serve(result_cache_size=64)
