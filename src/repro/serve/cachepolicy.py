"""The result cache: a byte-accounted, snapshot-indexed TTL cache.

PR 4's result cache was a bare ``OrderedDict`` capped by *entry count*
— no time-to-live, no size accounting (a scalar aggregate and a whole
serialized subtree cost the same slot), and no proof that a retired
snapshot's entries actually left.  :class:`ResultCacheStorage`
replaces it:

* every entry is charged its *serialized byte size* (plus a fixed
  per-entry overhead, so a million empty results still account) — the
  tree-pattern survey's observation that XML query results range from
  scalars to whole subtrees is exactly why entries, not bytes, was the
  wrong unit;
* admission is bounded: a result larger than ``max_entry_bytes`` (or
  than the whole budget) is never cached, so one giant, rarely
  repeated result cannot flush many small reusable ones;
* every entry may carry a time-to-live (``ttl_s``);
* eviction is LRU **by bytes**: inserts evict least-recently-used
  entries until the byte budget fits (expired entries go first);
* a per-snapshot index maps ``(document, snapshot id)`` to the entry
  keys under it, so :meth:`~ResultCacheStorage.invalidate_snapshot` is
  proportional to the snapshot's entries, not the cache — and every
  invalidation *audits*: after the indexed drop it scans for survivors
  and counts them (the count must be zero; the serving tests pin it).

Every knob is fixed when the storage is built; nothing resizes it at
run time.

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
knobs, or a prebuilt storage.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Mapping
from typing import Any

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "ENTRY_OVERHEAD_BYTES",
    "CacheEntry",
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


class ResultCacheStorage:
    """Byte-accounted entries, snapshot index, LRU, TTL.

    Thread-safe; one instance is owned by each
    :class:`~repro.serve.service.QueryService`.

    Parameters
    ----------
    max_bytes:
        The byte budget (``0`` admits nothing).
    max_entries:
        Optional cap on the entry count, on top of the byte budget.
    ttl_s:
        Time-to-live in seconds for every admitted entry (``None``
        disables expiry — snapshot immutability already guarantees
        correctness; TTL is a freshness/footprint knob, not a
        correctness one).
    max_entry_bytes:
        Admission bound: results charged more than this are never
        cached.  ``None`` admits any size that fits the budget.
    clock:
        Injectable for deterministic TTL tests.
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES, *,
                 max_entries: int | None = None,
                 ttl_s: float | None = None,
                 max_entry_bytes: int | None = None,
                 sizer: Callable[[Any], int] = default_result_sizer,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_bytes < 0:
            raise UsageError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise UsageError(
                f"max_entries must be >= 0, got {max_entries}")
        if ttl_s is not None and not ttl_s > 0:
            raise UsageError(f"ttl_s must be > 0, got {ttl_s}")
        if max_entry_bytes is not None and max_entry_bytes <= 0:
            raise UsageError(
                f"max_entry_bytes must be > 0, got {max_entry_bytes}")
        self.ttl_s = ttl_s
        self.max_entry_bytes = max_entry_bytes
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

    def stats(self) -> dict:
        """The ``result_cache`` section of ``service.stats()``."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "bytes": self.current_bytes,
                "capacity_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "max_entry_bytes": self.max_entry_bytes,
                "ttl_s": self.ttl_s,
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
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.result

    def put(self, key: tuple, result: Any,
            nbytes: int | None = None) -> bool:
        """Size one result, then admit it if it fits; returns whether
        it cached.

        ``key[0]`` / ``key[1]`` are the document name and snapshot id
        (the serving layer's key layout) — they index the entry for
        per-snapshot invalidation.  ``nbytes`` overrides the sizer's
        byte charge.
        """
        if not self.enabled:
            return False
        if nbytes is None:
            nbytes = self.sizer(result) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes or (self.max_entry_bytes is not None
                                       and nbytes > self.max_entry_bytes):
            with self._lock:
                self.rejected += 1
            return False
        now = self.clock()
        entry = CacheEntry(key, result, nbytes, (key[0], key[1]),
                           now + self.ttl_s if self.ttl_s is not None
                           else None)
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
    # Lifecycle: invalidation, clear.
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

    def clear(self) -> int:
        """Drop every entry (the lifetime counters stay); returns
        entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_snapshot.clear()
            self.current_bytes = 0
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


#: The knobs a ``result_cache=`` mapping may set.
_KNOBS = frozenset({"max_bytes", "max_entries", "ttl_s", "max_entry_bytes"})


def _byte_size(name: str, value: Any) -> int:
    """A byte-size knob: a count, or a unit-suffixed string."""
    if isinstance(value, str):
        value = _parse_bytes(value)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(
            f"result_cache {name} must be a byte budget (e.g. 65536, "
            f"\"64kb\", \"16mb\"), got {value!r}")
    if value < 0:
        raise UsageError(
            f"result_cache {name} byte budget must be >= 0, got {value}")
    return value


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
                                  ``ttl_s``, ``max_entry_bytes`` (both
                                  byte knobs take the unit spellings)
    :class:`ResultCacheStorage`   used as-is
    ============================  =====================================

    A budget of zero bytes or zero entries, however spelled, disables
    the cache.  Every knob is type-checked here: a wrong type is a
    :class:`~repro.errors.UsageError`, like a bad value.
    """
    if isinstance(spec, ResultCacheStorage):
        return spec
    if spec is False:
        return None
    if spec is None or spec is True:
        knobs: dict[str, Any] = {}
    elif isinstance(spec, str) and spec.strip().lower() in (
            "off", "none", "disabled"):
        return None
    elif isinstance(spec, (int, str)):
        knobs = {"max_bytes": spec}
    elif isinstance(spec, Mapping):
        knobs = dict(spec)
        unknown = knobs.keys() - _KNOBS
        if unknown:
            raise UsageError("unknown result_cache knobs: "
                             + ", ".join(sorted(map(str, unknown))))
    else:
        raise UsageError(
            f"cannot interpret result_cache spec {spec!r} (expected None, "
            "0/\"off\", a byte budget, a knob mapping or a "
            "ResultCacheStorage)")
    max_bytes = _byte_size("max_bytes",
                           knobs.get("max_bytes", DEFAULT_RESULT_CACHE_BYTES))
    max_entries = knobs.get("max_entries")
    if max_entries is not None and (isinstance(max_entries, bool)
                                    or not isinstance(max_entries, int)):
        raise UsageError(
            f"result_cache max_entries must be an int, got {max_entries!r}")
    ttl_s = knobs.get("ttl_s")
    if ttl_s is not None and (isinstance(ttl_s, bool)
                              or not isinstance(ttl_s, (int, float))):
        raise UsageError(
            f"result_cache ttl_s must be a number of seconds, got {ttl_s!r}")
    max_entry_bytes = knobs.get("max_entry_bytes")
    if max_entry_bytes is not None:
        max_entry_bytes = _byte_size("max_entry_bytes", max_entry_bytes)
    if max_bytes == 0 or max_entries == 0:
        return None
    return ResultCacheStorage(max_bytes, max_entries=max_entries,
                              ttl_s=ttl_s, max_entry_bytes=max_entry_bytes)
