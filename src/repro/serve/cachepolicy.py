"""Result-cache policy/storage split: a byte-accounted TTL cache.

PR 4's result cache was a bare ``OrderedDict`` capped by *entry count*
— no time-to-live, no size accounting (a scalar aggregate and a whole
serialized subtree cost the same slot), and no proof that a retired
snapshot's entries actually left.  This module replaces it with the
policy/storage split scrapy uses for its HTTP cache: a dumb, auditable
:class:`ResultCacheStorage` holding the bytes, driven by a pluggable
:class:`CachePolicy` making the decisions.

**Storage** (:class:`ResultCacheStorage`)
    * every entry is charged its *serialized byte size* (plus a fixed
      per-entry overhead, so a million empty results still account) —
      the tree-pattern survey's observation that XML query results
      range from scalars to whole subtrees is exactly why entries, not
      bytes, was the wrong unit;
    * eviction is LRU **by bytes**: inserts evict least-recently-used
      entries until the byte budget fits (expired entries go first);
    * a per-snapshot index maps ``(document, snapshot id)`` to the
      entry keys under it, so :meth:`invalidate_snapshot` is
      proportional to the snapshot's entries, not the cache — and every
      invalidation *audits*: after the indexed drop it scans for
      survivors and counts them (the count must be zero; the serving
      tests pin it);
    * hit/miss counters come in two horizons — process-lifetime and a
      *window* that resets on :meth:`resize`/:meth:`clear`, so a
      resized cache reports a ratio about its current configuration,
      not about a configuration that no longer exists.

**Policy** (:class:`CachePolicy` / :class:`AdaptiveCachePolicy`)
    decides ``should_cache`` (admission — oversized results are never
    admitted), ``ttl_for`` (expiry) and, for the adaptive variant, how
    the byte budget itself moves: fed by the storage's windowed hit
    ratio and the entry-size histogram the serving layer records into
    the document's :class:`~repro.obs.statstore.StatsStore`, it grows
    the budget while hits are being lost to byte-pressure evictions and
    shrinks it when the window says the cache is not earning its keep.

Metric families (process-wide, ``repro_result_cache_*``):

==============================================  ==============================
``repro_result_cache_bytes``                    gauge: bytes currently held
``repro_result_cache_evictions_total``          entries evicted by byte/entry
                                                pressure
``repro_result_cache_expirations_total``        entries dropped past their TTL
``repro_result_cache_invalidated_total``        entries dropped by snapshot
                                                retirement
==============================================  ==============================

The facade spells all of this as the ``result_cache=`` spec (see
:func:`resolve_result_cache`): ``None`` for defaults, ``0``/``"off"``
to disable, an int/``"64kb"``/``"16mb"`` byte budget, a mapping of
knobs, a :class:`CachePolicy`, or a prebuilt storage.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Mapping
from typing import Any

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY, bucket_quantile
from repro.obs.statstore import RESULT_SIZE_BUCKETS

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "ENTRY_OVERHEAD_BYTES",
    "ENTRY_SIZE_BUCKETS",
    "AdaptiveCachePolicy",
    "CacheEntry",
    "CachePolicy",
    "ResultCacheStorage",
    "default_result_sizer",
    "resolve_result_cache",
]

_CACHE_BYTES = REGISTRY.gauge(
    "repro_result_cache_bytes",
    "Bytes currently held by snapshot-keyed result caches")
_EVICTIONS = REGISTRY.counter(
    "repro_result_cache_evictions_total",
    "Result-cache entries evicted by byte/entry pressure")
_EXPIRATIONS = REGISTRY.counter(
    "repro_result_cache_expirations_total",
    "Result-cache entries dropped past their TTL")
_INVALIDATED = REGISTRY.counter(
    "repro_result_cache_invalidated_total",
    "Result-cache entries dropped by snapshot retirement")

#: Default byte budget when the ``result_cache=`` spec names none.
DEFAULT_RESULT_CACHE_BYTES = 16 * 1024 * 1024

#: Fixed per-entry charge on top of the serialized payload (key tuple,
#: dict slot, index membership) so zero-byte results still account.
ENTRY_OVERHEAD_BYTES = 256

#: Entry-size histogram buckets (bytes) — the serving layer records
#: entry sizes into each document's StatsStore under these buckets and
#: the adaptive policy reads the distribution back.
ENTRY_SIZE_BUCKETS = RESULT_SIZE_BUCKETS

_UNITS = {"b": 1, "kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3}


def default_result_sizer(result: Any) -> int:
    """Serialized byte size of one result — the unit entries are
    charged in.  Computed once at admission (on a worker thread, where
    the result was just produced), never on the hit path."""
    return len(result.serialize().encode("utf-8"))


class CacheEntry:
    """One stored result: payload, byte charge, snapshot, expiry."""

    __slots__ = ("key", "result", "nbytes", "snapshot_key", "expires_at")

    def __init__(self, key: tuple, result: Any, nbytes: int,
                 snapshot_key: tuple, expires_at: float | None) -> None:
        self.key = key
        self.result = result
        self.nbytes = nbytes
        self.snapshot_key = snapshot_key
        self.expires_at = expires_at

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class CachePolicy:
    """The decision half of the split: admission, TTL, sizing.

    Parameters
    ----------
    ttl_s:
        Time-to-live in seconds for every admitted entry (``None``
        disables expiry — snapshot immutability already guarantees
        correctness; TTL is a freshness/footprint knob, not a
        correctness one).
    max_entry_bytes:
        Admission bound: results serializing larger than this are never
        cached (they would evict many small, reusable entries for one
        giant, rarely-repeated one).  ``None`` admits any size that
        fits the budget.
    """

    def __init__(self, *, ttl_s: float | None = None,
                 max_entry_bytes: int | None = None) -> None:
        if ttl_s is not None and ttl_s <= 0:
            raise UsageError(f"ttl_s must be > 0, got {ttl_s}")
        if max_entry_bytes is not None and max_entry_bytes <= 0:
            raise UsageError(
                f"max_entry_bytes must be > 0, got {max_entry_bytes}")
        self.ttl_s = ttl_s
        self.max_entry_bytes = max_entry_bytes

    def should_cache(self, key: tuple, result: Any, nbytes: int) -> bool:
        """Admission decision for one freshly computed result."""
        return self.max_entry_bytes is None or nbytes <= self.max_entry_bytes

    def ttl_for(self, key: tuple, result: Any, nbytes: int) -> float | None:
        """Per-entry TTL (seconds); ``None`` means no expiry."""
        return self.ttl_s

    def adapt(self, storage: ResultCacheStorage,
              stats_stores: Callable[[], list] | None = None) -> int | None:
        """Sizing hook: return a new byte budget, or ``None`` to keep.

        The base policy never moves the budget; see
        :class:`AdaptiveCachePolicy`.
        """
        return None

    def describe(self) -> dict:
        """JSON-able policy summary for the ``stats()`` payload."""
        return {
            "policy": type(self).__name__,
            "ttl_s": self.ttl_s,
            "max_entry_bytes": self.max_entry_bytes,
        }


class AdaptiveCachePolicy(CachePolicy):
    """Hit-ratio-driven byte-budget sizing over the base policy.

    Every ``interval`` window lookups the policy re-decides the budget
    from two observed signals:

    * the storage's **windowed hit ratio** (the window resets on every
      resize, so each decision is measured against the budget it set);
    * the **entry-size histogram** recorded into the documents'
      :class:`~repro.obs.statstore.StatsStore` by the serving layer
      (observed p95 entry bytes — how big this workload's results
      actually are).

    Budget moves: while the ratio is at least ``grow_ratio`` *and* the
    window lost entries to byte-pressure evictions, the budget doubles
    (hits are being evicted away); while the ratio is at most
    ``shrink_ratio``, it halves (the cache is not earning its bytes).
    Both directions are clamped to ``[min_bytes, max_bytes]``, and the
    admission bound ``max_entry_bytes`` follows the observed sizes
    (``entry_headroom`` × p95) so one outlier subtree cannot flush the
    working set.
    """

    def __init__(self, *, ttl_s: float | None = None,
                 max_entry_bytes: int | None = None,
                 min_bytes: int = 1024 * 1024,
                 max_bytes: int = 256 * 1024 * 1024,
                 grow_ratio: float = 0.6, shrink_ratio: float = 0.1,
                 interval: int = 128, entry_headroom: float = 8.0) -> None:
        super().__init__(ttl_s=ttl_s, max_entry_bytes=max_entry_bytes)
        if min_bytes <= 0 or max_bytes < min_bytes:
            raise UsageError(
                f"need 0 < min_bytes <= max_bytes, got {min_bytes}"
                f"/{max_bytes}")
        if not 0.0 <= shrink_ratio < grow_ratio <= 1.0:
            raise UsageError(
                "need 0 <= shrink_ratio < grow_ratio <= 1, got "
                f"{shrink_ratio}/{grow_ratio}")
        if interval < 1:
            raise UsageError(f"interval must be >= 1, got {interval}")
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes
        self.grow_ratio = grow_ratio
        self.shrink_ratio = shrink_ratio
        self.interval = interval
        self.entry_headroom = entry_headroom
        #: (grew, shrank, entry-bound updates) — auditable in stats().
        self.decisions = {"grown": 0, "shrunk": 0, "entry_bound": 0}

    def adapt(self, storage: ResultCacheStorage,
              stats_stores: Callable[[], list] | None = None) -> int | None:
        window = storage.window_snapshot()
        if window["lookups"] < self.interval:
            return None
        # Follow the observed entry sizes before judging the ratio: the
        # admission bound shapes what the next window can even hold.
        if stats_stores is not None:
            p95 = _observed_entry_p95(stats_stores())
            if p95 is not None:
                bound = max(ENTRY_OVERHEAD_BYTES * 4,
                            int(p95 * self.entry_headroom))
                if bound != self.max_entry_bytes:
                    self.max_entry_bytes = bound
                    self.decisions["entry_bound"] += 1
        ratio = window["hit_ratio"]
        budget = storage.max_bytes
        if ratio is None:
            return None
        if ratio >= self.grow_ratio and window["evictions"] > 0 \
                and budget < self.max_bytes:
            self.decisions["grown"] += 1
            return min(budget * 2, self.max_bytes)
        if ratio <= self.shrink_ratio and budget > self.min_bytes:
            self.decisions["shrunk"] += 1
            return max(budget // 2, self.min_bytes)
        # Verdict reached, budget stands: restart the measurement window
        # so the next decision is not diluted by this one's samples.
        storage.reset_window()
        return None

    def describe(self) -> dict:
        payload = super().describe()
        payload.update({
            "min_bytes": self.min_bytes, "max_bytes": self.max_bytes,
            "grow_ratio": self.grow_ratio, "shrink_ratio": self.shrink_ratio,
            "interval": self.interval, "decisions": dict(self.decisions),
        })
        return payload


def _observed_entry_p95(stores: list) -> float | None:
    """Pooled p95 of the result-size histograms across stats stores."""
    pooled = [0] * len(ENTRY_SIZE_BUCKETS)
    n = 0
    for store in stores:
        histogram = getattr(store, "result_bytes", None)
        if histogram is None:
            continue
        for counts, _total, cell_n in histogram.cells().values():
            for index, count in enumerate(counts):
                pooled[index] += count
            n += cell_n
    if n == 0:
        return None
    return bucket_quantile(ENTRY_SIZE_BUCKETS, pooled, n, 0.95)


class ResultCacheStorage:
    """The mechanics half: byte-accounted entries, snapshot index, LRU.

    Thread-safe; one instance is owned by each
    :class:`~repro.serve.service.QueryService`.  ``clock`` is
    injectable for deterministic TTL tests.
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES, *,
                 max_entries: int | None = None,
                 policy: CachePolicy | None = None,
                 sizer: Callable[[Any], int] = default_result_sizer,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_bytes < 0:
            raise UsageError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise UsageError(
                f"max_entries must be >= 0, got {max_entries}")
        self.policy = policy if policy is not None else CachePolicy()
        self.sizer = sizer
        self.clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        #: (document name, snapshot id) -> keys cached under it.
        self._by_snapshot: dict[tuple, set[tuple]] = {}
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.current_bytes = 0
        # Lifetime counters (never reset while the storage lives).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidated = 0
        self.rejected = 0
        # Window counters: reset on resize()/clear() — satellite fix
        # for the stale post-resize hit ratio.
        self._window_hits = 0
        self._window_misses = 0
        self._window_evictions = 0
        self._window_started = self.clock()
        # The snapshot-invalidation audit ledger.
        self.snapshots_invalidated = 0
        self.audit_survivors = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether entries can be admitted at all."""
        return self.max_bytes > 0 and self.max_entries != 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def window_snapshot(self) -> dict:
        with self._lock:
            lookups = self._window_hits + self._window_misses
            return {
                "hits": self._window_hits,
                "misses": self._window_misses,
                "lookups": lookups,
                "evictions": self._window_evictions,
                "hit_ratio": (self._window_hits / lookups
                              if lookups else None),
                "age_s": round(self.clock() - self._window_started, 3),
            }

    def reset_window(self) -> None:
        with self._lock:
            self._reset_window_locked()

    def _reset_window_locked(self) -> None:
        self._window_hits = 0
        self._window_misses = 0
        self._window_evictions = 0
        self._window_started = self.clock()

    def stats(self) -> dict:
        """The ``result_cache`` section of ``service.stats()``."""
        window = self.window_snapshot()
        with self._lock:
            lookups = self.hits + self.misses
            payload = {
                "size": len(self._entries),
                "bytes": self.current_bytes,
                "capacity_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": (round(self.hits / lookups, 4)
                              if lookups else None),
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidated": self.invalidated,
                "rejected": self.rejected,
                "audit": {
                    "snapshots_invalidated": self.snapshots_invalidated,
                    "survivors": self.audit_survivors,
                },
            }
        if window["hit_ratio"] is not None:
            window["hit_ratio"] = round(window["hit_ratio"], 4)
        payload["window"] = window
        payload.update(self.policy.describe())
        return payload

    # ------------------------------------------------------------------
    # The data path.
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> Any | None:
        """Look one key up; expired entries count as misses and drop."""
        now = self.clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.expired(now):
                self._drop_locked(entry)
                self.expirations += 1
                _EXPIRATIONS.inc()
                entry = None
            if entry is None:
                self.misses += 1
                self._window_misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._window_hits += 1
            return entry.result

    def put(self, key: tuple, result: Any,
            nbytes: int | None = None) -> bool:
        """Admit one result under the policy; returns whether it cached.

        ``key[0]`` / ``key[1]`` are the document name and snapshot id
        (the serving layer's key layout) — they index the entry for
        per-snapshot invalidation.  ``nbytes`` lets the caller pass a
        pre-computed byte charge (the serving layer sizes once, records
        the size into the stats store, then admits).
        """
        if not self.enabled:
            return False
        if nbytes is None:
            nbytes = self.sizer(result) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes \
                or not self.policy.should_cache(key, result, nbytes):
            with self._lock:
                self.rejected += 1
            return False
        ttl = self.policy.ttl_for(key, result, nbytes)
        now = self.clock()
        entry = CacheEntry(key, result, nbytes, (key[0], key[1]),
                           now + ttl if ttl is not None else None)
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._drop_locked(old)
            self._evict_for_locked(nbytes, now)
            self._entries[key] = entry
            self._by_snapshot.setdefault(entry.snapshot_key,
                                         set()).add(key)
            self.current_bytes += nbytes
            _CACHE_BYTES.set(self.current_bytes)
        return True

    def entry_bytes(self, key: tuple) -> int | None:
        """Byte charge of one live entry (tests/introspection)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.nbytes if entry is not None else None

    # ------------------------------------------------------------------
    # Lifecycle: invalidation, resize, clear.
    # ------------------------------------------------------------------

    def invalidate_snapshot(self, name: str, snapshot_id: int) -> int:
        """Synchronously drop every entry of one retired snapshot.

        Runs inside the catalog's retire notification, so by the time
        ``unpin``/``commit`` returns there is no window in which a
        retired snapshot's results can still be served.  The drop is
        indexed (proportional to the snapshot's entries); the **audit**
        then scans the full cache for survivors — the count is kept and
        must stay zero (the regression test asserts it).
        """
        snapshot_key = (name, snapshot_id)
        with self._lock:
            keys = self._by_snapshot.pop(snapshot_key, set())
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
                         if entry.snapshot_key == snapshot_key]
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

    def resize(self, max_bytes: int | None = None,
               max_entries: int | None = None) -> None:
        """Move the budget; evicts down to it and resets the window."""
        with self._lock:
            if max_bytes is not None:
                if max_bytes < 0:
                    raise UsageError(
                        f"max_bytes must be >= 0, got {max_bytes}")
                self.max_bytes = max_bytes
            if max_entries is not None:
                self.max_entries = max_entries
            self._evict_for_locked(0, self.clock())
            self._reset_window_locked()
            _CACHE_BYTES.set(self.current_bytes)

    def clear(self) -> int:
        """Drop everything; resets the window; returns entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_snapshot.clear()
            self.current_bytes = 0
            self._reset_window_locked()
            _CACHE_BYTES.set(0)
            return dropped

    # ------------------------------------------------------------------
    # Internals (lock held).
    # ------------------------------------------------------------------

    def _drop_locked(self, entry: CacheEntry) -> None:
        self._entries.pop(entry.key, None)
        keys = self._by_snapshot.get(entry.snapshot_key)
        if keys is not None:
            keys.discard(entry.key)
            if not keys:
                del self._by_snapshot[entry.snapshot_key]
        self.current_bytes -= entry.nbytes
        _CACHE_BYTES.set(self.current_bytes)

    def _evict_for_locked(self, incoming: int, now: float) -> None:
        """Make room for ``incoming`` bytes: expired first, then LRU."""
        if self.current_bytes + incoming > self.max_bytes:
            expired = [e for e in self._entries.values() if e.expired(now)]
            for entry in expired:
                self._drop_locked(entry)
                self.expirations += 1
                _EXPIRATIONS.inc()
        while self._entries and (
                self.current_bytes + incoming > self.max_bytes
                or (self.max_entries is not None
                    and len(self._entries) >= self.max_entries)):
            _key, entry = self._entries.popitem(last=False)
            keys = self._by_snapshot.get(entry.snapshot_key)
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._by_snapshot[entry.snapshot_key]
            self.current_bytes -= entry.nbytes
            self.evictions += 1
            self._window_evictions += 1
            _EVICTIONS.inc()
        _CACHE_BYTES.set(self.current_bytes)


def _parse_bytes(text: str) -> int:
    """``"64kb"`` / ``"16mb"`` / ``"1048576"`` → bytes."""
    cleaned = text.strip().lower().replace("_", "")
    for suffix in ("gb", "mb", "kb", "b"):
        if cleaned.endswith(suffix):
            number = cleaned[:-len(suffix)].strip()
            try:
                return int(float(number) * _UNITS[suffix])
            except (ValueError, OverflowError):     # "xkb", "infkb"
                break
    try:
        return int(cleaned)
    except ValueError:
        raise UsageError(
            f"cannot parse result-cache byte size {text!r} "
            "(expected e.g. 65536, \"64kb\", \"16mb\")") from None


def resolve_result_cache(spec: Any) -> ResultCacheStorage | None:
    """Resolve the facade's ``result_cache=`` spec into a storage.

    ============================  =====================================
    spec                          meaning
    ============================  =====================================
    ``None`` / ``True``           default 16 MiB byte-LRU, no TTL
    ``0`` / ``False`` / ``"off"`` caching disabled (returns ``None``)
    ``int``                       byte budget
    ``"64kb"`` / ``"16mb"``       byte budget, unit-suffixed
    mapping                       knobs: ``max_bytes``, ``max_entries``,
                                  ``ttl_s``, ``max_entry_bytes``,
                                  ``adaptive`` (bool or knob mapping)
    :class:`CachePolicy`          default budget under that policy
    :class:`ResultCacheStorage`   used as-is
    ============================  =====================================
    """
    if spec is None or spec is True:
        return ResultCacheStorage()
    if isinstance(spec, ResultCacheStorage):
        return spec
    if isinstance(spec, CachePolicy):
        return ResultCacheStorage(policy=spec)
    if spec is False or (isinstance(spec, int) and spec == 0):
        return None
    if isinstance(spec, str):
        if spec.strip().lower() in ("off", "none", "disabled", "0"):
            return None
        return ResultCacheStorage(max_bytes=_parse_bytes(spec))
    if isinstance(spec, int):
        if spec < 0:
            raise UsageError(f"result_cache byte budget must be >= 0, "
                             f"got {spec}")
        return ResultCacheStorage(max_bytes=spec)
    if isinstance(spec, Mapping):
        knobs = dict(spec)
        max_bytes = knobs.pop("max_bytes", DEFAULT_RESULT_CACHE_BYTES)
        if isinstance(max_bytes, str):
            max_bytes = _parse_bytes(max_bytes)
        max_entries = knobs.pop("max_entries", None)
        if max_entries == 0 or max_bytes == 0:
            return None
        adaptive = knobs.pop("adaptive", False)
        ttl_s = knobs.pop("ttl_s", None)
        max_entry_bytes = knobs.pop("max_entry_bytes", None)
        if knobs:
            raise UsageError(
                "unknown result_cache knobs: "
                + ", ".join(sorted(map(str, knobs))))
        if adaptive:
            extra = dict(adaptive) if isinstance(adaptive, Mapping) else {}
            policy: CachePolicy = AdaptiveCachePolicy(
                ttl_s=ttl_s, max_entry_bytes=max_entry_bytes, **extra)
        else:
            policy = CachePolicy(ttl_s=ttl_s,
                                 max_entry_bytes=max_entry_bytes)
        return ResultCacheStorage(max_bytes=max_bytes,
                                  max_entries=max_entries, policy=policy)
    raise UsageError(
        f"cannot interpret result_cache spec {spec!r} (expected None, "
        "0/\"off\", a byte budget, a knob mapping, a CachePolicy or a "
        "ResultCacheStorage)")
