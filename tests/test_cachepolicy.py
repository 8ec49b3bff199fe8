"""Unit tests for the result-cache storage
(:mod:`repro.serve.cachepolicy`): byte accounting, LRU-by-bytes
eviction, admission, the snapshot-invalidation audit, and the
``result_cache=`` byte budget.

The serving-layer integration (retire hooks, service stats threading)
is covered in ``test_serve_service.py``; everything here drives the
storage directly with an opaque result and hand-made item fragments.
"""

import pytest

import repro
from repro.errors import UsageError
from repro.serve.cachepolicy import (
    DEFAULT_RESULT_CACHE_BYTES,
    ENTRY_OVERHEAD_BYTES,
    ResultCacheStorage,
)
from repro.serve.protocol import encode_fragment
from repro.serve.service import QueryService

#: Stands in for a QueryResult: the storage never looks inside it.
RESULT = object()


def wire(payload: str) -> list[bytes]:
    """One fragment of ``payload``'s UTF-8 bytes (none for ``""``): the
    charge is the fragments' byte lengths, whatever they encode."""
    return [payload.encode("utf-8")] if payload else []


def key(n: int, snapshot: int = 1) -> tuple:
    return (snapshot, f"//q{n}", "auto")


def make_storage(max_bytes: int = 4096) -> ResultCacheStorage:
    return ResultCacheStorage(max_bytes)


class TestByteAccounting:
    def test_entries_charged_serialized_size_plus_overhead(self):
        storage = make_storage()
        assert storage.put(key(1), RESULT, [b"x" * 60, b"y" * 40])
        assert storage.stats()["bytes"] == 100 + ENTRY_OVERHEAD_BYTES
        assert storage.put(key(2), RESULT, [])
        # Zero-item results still pay the fixed overhead.
        assert storage.stats()["bytes"] == 100 + 2 * ENTRY_OVERHEAD_BYTES
        # A hit hands back the result with the very fragments admitted.
        entry = storage.get(key(1))
        assert entry.result is RESULT
        assert entry.fragments == [b"x" * 60, b"y" * 40]

    def test_replacing_a_key_releases_the_old_charge(self):
        storage = make_storage()
        storage.put(key(1), RESULT, wire("x" * 100))
        storage.put(key(1), RESULT, wire("y" * 10))
        assert len(storage) == 1
        assert storage.stats()["bytes"] == 10 + ENTRY_OVERHEAD_BYTES

    def test_multibyte_text_is_charged_in_utf8_bytes(self):
        storage = make_storage()
        # The wire fragment keeps "é" as UTF-8 (2 bytes each), not as a
        # 6-byte "\u00e9" escape.
        storage.put(key(1), RESULT, [encode_fragment("é" * 10)])
        frame = len(b'{"kind":"atom","value":""}')
        assert storage.stats()["bytes"] == \
            frame + 20 + ENTRY_OVERHEAD_BYTES


class TestEviction:
    def test_lru_by_bytes_evicts_oldest_first(self):
        storage = make_storage(max_bytes=3 * ENTRY_OVERHEAD_BYTES)
        for n in (1, 2, 3):
            assert storage.put(key(n), RESULT, wire(""))
        assert len(storage) == 3
        storage.put(key(4), RESULT, wire(""))     # over budget
        assert storage.get(key(1)) is None        # oldest left
        assert storage.get(key(4)) is not None
        assert storage.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        storage = make_storage(max_bytes=2 * ENTRY_OVERHEAD_BYTES)
        storage.put(key(1), RESULT, wire(""))
        storage.put(key(2), RESULT, wire(""))
        storage.get(key(1))                               # 1 is now MRU
        storage.put(key(3), RESULT, wire(""))
        assert storage.get(key(1)) is not None
        assert storage.get(key(2)) is None

    def test_one_large_entry_evicts_many_small(self):
        storage = make_storage(max_bytes=2048)
        for n in range(4):
            storage.put(key(n), RESULT, wire("x" * 100))
        storage.put(key(9), RESULT, wire("x" * 1500))
        stats = storage.stats()
        assert stats["bytes"] <= stats["capacity_bytes"]
        assert storage.get(key(9)) is not None

    def test_entry_larger_than_budget_is_rejected(self):
        storage = make_storage(max_bytes=512)
        assert not storage.put(key(1), RESULT, wire("x" * 4096))
        assert len(storage) == 0
        assert storage.stats()["rejected"] == 1

    def test_disabled_storage_never_admits(self):
        storage = make_storage(max_bytes=0)
        assert not storage.put(key(1), RESULT, wire(""))
        assert storage.get(key(1)) is None
        assert len(storage) == 0


class TestAdmissionPolicy:
    def test_policy_knob_validation(self):
        with pytest.raises(UsageError, match="max_bytes"):
            ResultCacheStorage(-1)


class TestSnapshotInvalidation:
    def test_indexed_drop_with_clean_audit(self):
        storage = make_storage()
        for n in range(3):
            storage.put(key(n, snapshot=1), RESULT, wire("x"))
        storage.put(key(9, snapshot=2), RESULT, wire("y"))
        dropped = storage.invalidate_snapshot(1)
        assert dropped == 3
        stats = storage.stats()
        assert stats["size"] == 1                         # snapshot 2 stays
        assert stats["invalidated"] == 3
        assert stats["audit"]["snapshots_invalidated"] == 1
        assert stats["audit"]["survivors"] == 0
        assert storage.get(key(0, snapshot=1)) is None
        assert storage.get(key(9, snapshot=2)) is not None

    def test_audit_catches_an_index_hole(self):
        """Sabotage the snapshot index the way the pre-split bug class
        would (an entry the index forgot): the audit's full scan must
        still drop it and count the survivor."""
        storage = make_storage()
        storage.put(key(1), RESULT, wire("x"))
        storage.put(key(2), RESULT, wire("y"))
        storage._by_snapshot[1].discard(key(2))  # the "bug"
        dropped = storage.invalidate_snapshot(1)
        assert dropped == 2                               # audit caught it
        stats = storage.stats()
        assert stats["audit"]["survivors"] == 1
        assert stats["size"] == 0 and stats["bytes"] == 0

    def test_unknown_snapshot_is_a_noop_but_still_audited(self):
        storage = make_storage()
        storage.put(key(1), RESULT, wire("x"))
        assert storage.invalidate_snapshot(777) == 0
        stats = storage.stats()
        assert stats["audit"]["snapshots_invalidated"] == 1
        assert stats["audit"]["survivors"] == 0
        assert stats["size"] == 1


class TestResolveSpec:
    """``result_cache=`` is the byte budget: ``None`` (the default) or a
    non-bool ``int`` >= 0, where ``0`` means no cache."""

    def test_none_builds_the_default(self):
        with QueryService("<a/>", workers=1) as service:
            assert service.result_cache.max_bytes == \
                DEFAULT_RESULT_CACHE_BYTES

    @pytest.mark.parametrize("spec, expected", [(65536, 65536),
                                                (4096, 4096)])
    def test_byte_budget_spellings(self, spec, expected):
        with QueryService("<a/>", workers=1, result_cache=spec) as service:
            stats = service.stats()["result_cache"]
            assert stats["capacity_bytes"] == expected

    def test_zero_disables(self):
        with repro.connect("<a/>") as db:
            service = db.serve(workers=1, result_cache=0)
            assert service.result_cache is None
            assert service.stats()["result_cache"] == {"enabled": False}

    @pytest.mark.parametrize("spec", [
        True, "64kb", "off", {"max_bytes": 1}, ResultCacheStorage(1024),
        -1, 1.5])
    def test_any_other_value_is_refused(self, spec):
        with pytest.raises(UsageError, match="result_cache"):
            QueryService("<a/>", workers=1, result_cache=spec)
        with repro.connect("<a/>") as db:
            with pytest.raises(UsageError, match="result_cache"):
                db.serve(workers=1, result_cache=spec)


class TestResultCacheSizeShim:
    def test_result_cache_size_is_a_type_error(self):
        # The entry-count ``result_cache_size=`` shim completed its
        # one-release deprecation cycle: like any unknown keyword it is
        # a plain TypeError now (``result_cache=`` is a byte budget).
        with pytest.raises(TypeError, match="result_cache_size"):
            QueryService("<a/>", result_cache_size=64)
        with repro.connect("<a/>") as db:
            with pytest.raises(TypeError, match="result_cache_size"):
                db.serve(result_cache_size=64)
