"""The result cache: a byte-accounted, snapshot-indexed LRU.

PR 4's result cache was a bare ``OrderedDict`` capped by *entry count*
— no size accounting (a scalar aggregate and a whole serialized subtree
cost the same slot), and no proof that a retired snapshot's entries
actually left.  :class:`ResultCacheStorage` replaces it:

* every entry holds its result **and each item's wire fragment** (the
  compact JSON bytes :func:`~repro.serve.protocol.encode_fragment`
  builds once, at admission, on the worker thread that produced the
  result), and is charged that wire payload — the fragments' byte
  lengths plus a fixed per-entry overhead, so a million empty results
  still account.  The tree-pattern survey's observation that XML query
  results range from scalars to whole subtrees is exactly why entries,
  not bytes, was the wrong unit.  A hit hands the fragments back, so
  neither the charge nor the hit path serializes anything;
* a result larger than the whole budget is never cached (and counted
  as ``rejected``);
* eviction is LRU **by bytes**: inserts evict least-recently-used
  entries until the byte budget fits;
* a per-snapshot index maps a snapshot id to the entry keys under it,
  so :meth:`~ResultCacheStorage.invalidate_snapshot` is
  proportional to the snapshot's entries, not the cache — and every
  invalidation *audits*: after the indexed drop it scans for survivors
  and counts them (the count must be zero; the serving tests pin it).

There is no time-to-live: entries are keyed by snapshot id, snapshots
are immutable, and a commit purges the retired snapshot's entries
before it returns, so a cached answer cannot go stale.  The byte budget
is the one setting, fixed when the storage is built.

Metric families (process-wide, ``repro_result_cache_*``):

==============================================  ==============================
``repro_result_cache_hits_total``               lookups answered from cache
``repro_result_cache_misses_total``             lookups that found nothing
``repro_result_cache_bytes``                    gauge: bytes currently held
``repro_result_cache_evictions_total``          entries evicted by byte
                                                pressure
``repro_result_cache_invalidated_total``        entries dropped by snapshot
                                                retirement
==============================================  ==============================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "ENTRY_OVERHEAD_BYTES",
    "CacheEntry",
    "ResultCacheStorage",
]

_HITS = REGISTRY.counter(
    "repro_result_cache_hits_total",
    "Queries served from the snapshot-keyed result cache")
_MISSES = REGISTRY.counter(
    "repro_result_cache_misses_total",
    "Cacheable queries that executed (and filled the result cache)")
_CACHE_BYTES = REGISTRY.gauge(
    "repro_result_cache_bytes",
    "Bytes currently held by snapshot-keyed result caches")
_EVICTIONS = REGISTRY.counter(
    "repro_result_cache_evictions_total",
    "Result-cache entries evicted by byte pressure")
_INVALIDATED = REGISTRY.counter(
    "repro_result_cache_invalidated_total",
    "Result-cache entries dropped by snapshot retirement")

#: The byte budget of ``result_cache=None``.
DEFAULT_RESULT_CACHE_BYTES = 16 * 1024 * 1024

#: Fixed per-entry charge on top of the wire payload (key tuple, dict
#: slot, index membership) so zero-item results still account.
ENTRY_OVERHEAD_BYTES = 256


class CacheEntry:
    """One stored result: the result, its item fragments, the byte
    charge and the snapshot."""

    __slots__ = ("key", "result", "fragments", "nbytes", "snapshot_id")

    def __init__(self, key: tuple, result: Any,
                 fragments: Sequence[bytes], nbytes: int,
                 snapshot_id: int) -> None:
        self.key = key
        self.result = result
        self.fragments = fragments
        self.nbytes = nbytes
        self.snapshot_id = snapshot_id


class ResultCacheStorage:
    """Byte-accounted entries, snapshot index, LRU by bytes.

    Thread-safe; one instance is owned by each
    :class:`~repro.serve.service.QueryService`, built from its
    ``result_cache=`` byte budget.
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise UsageError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        #: snapshot id -> keys cached under it.
        self._by_snapshot: dict[int, set[tuple]] = {}
        self.current_bytes = 0
        # Lifetime counters (never reset while the storage lives).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self.rejected = 0
        # The snapshot-invalidation audit ledger.
        self.snapshots_invalidated = 0
        self.audit_survivors = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """The ``result_cache`` section of ``service.stats()``."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "bytes": self.current_bytes,
                "capacity_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": (round(self.hits / lookups, 4)
                              if lookups else None),
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "rejected": self.rejected,
                "audit": {
                    "snapshots_invalidated": self.snapshots_invalidated,
                    "survivors": self.audit_survivors,
                },
            }

    # ------------------------------------------------------------------
    # The data path.
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> CacheEntry | None:
        """Look one key up, counting the hit or miss; a hit is the
        entry (``entry.result`` and ``entry.fragments``)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            _MISSES.inc()
            return None
        _HITS.inc()
        return entry

    def put(self, key: tuple, result: Any,
            fragments: Sequence[bytes]) -> bool:
        """Charge one result its item fragments' bytes plus the fixed
        overhead, then admit it if it fits; returns whether it cached.

        ``key[0]`` is the snapshot id (the serving layer's key layout) —
        it indexes the entry for per-snapshot invalidation.
        """
        nbytes = sum(map(len, fragments)) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes:
            with self._lock:
                self.rejected += 1
            return False
        entry = CacheEntry(key, result, fragments, nbytes, key[0])
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._unindex_locked(old)
            while self.current_bytes + nbytes > self.max_bytes:
                _key, victim = self._entries.popitem(last=False)
                self._unindex_locked(victim)
                self.evictions += 1
                _EVICTIONS.inc()
            self._entries[key] = entry
            self._by_snapshot.setdefault(entry.snapshot_id, set()).add(key)
            self.current_bytes += nbytes
            _CACHE_BYTES.set(self.current_bytes)
        return True

    # ------------------------------------------------------------------
    # Snapshot invalidation.
    # ------------------------------------------------------------------

    def invalidate_snapshot(self, snapshot_id: int) -> int:
        """Synchronously drop every entry of one retired snapshot.

        Runs inside the database's retire notification, so by the time
        ``unpin``/``commit`` returns there is no window in which a
        retired snapshot's results can still be served.  The drop is
        indexed (proportional to the snapshot's entries); the **audit**
        then scans the full cache for survivors — the count is kept and
        must stay zero (the regression test asserts it).
        """
        with self._lock:
            keys = self._by_snapshot.pop(snapshot_id, set())
            dropped = 0
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self.current_bytes -= entry.nbytes
                    dropped += 1
            # Audit: prove the index covered everything.  A survivor
            # here means the index and the entry map disagreed — a
            # lifecycle bug the counter makes visible instead of letting
            # LRU pressure quietly paper over it.
            survivors = [key for key, entry in self._entries.items()
                         if entry.snapshot_id == snapshot_id]
            for key in survivors:
                entry = self._entries.pop(key)
                self.current_bytes -= entry.nbytes
                dropped += 1
            self.snapshots_invalidated += 1
            self.audit_survivors += len(survivors)
            self.invalidated += dropped
            _CACHE_BYTES.set(self.current_bytes)
        if dropped:
            _INVALIDATED.inc(dropped)
        return dropped

    def _unindex_locked(self, entry: CacheEntry) -> None:
        """Release the charge and index slot of an entry already popped
        from the entry map (lock held)."""
        keys = self._by_snapshot.get(entry.snapshot_id)
        if keys is not None:
            keys.discard(entry.key)
            if not keys:
                del self._by_snapshot[entry.snapshot_id]
        self.current_bytes -= entry.nbytes
