"""LRU plan cache: compiled-query reuse across repeated ``query()`` calls.

The serving-path observation behind prepared queries applies equally to
ad-hoc traffic: the same query text arriving twice should not be
re-parsed, re-built and re-optimized.  :class:`PlanCache` memoizes the
full compile pipeline keyed on

``(normalized query text, strategy, document-statistics fingerprint)``

where *normalized* collapses whitespace (so reformatted copies of one
query share an entry) and the fingerprint is the structural summary's
digest of the documents the plan reads — the statistics the optimizer
consulted.  An update that changes the shape changes the fingerprint,
so stale plans are never even looked up; one that keeps it (every
version of one shape) shares the plans, and entries nothing asks for
any more leave by LRU.  Nothing is invalidated by hand.

Counters (all exported through ``repro.obs``):

=====================================  ==================================
``repro_plan_cache_hits_total``        lookups served from cache
``repro_plan_cache_misses_total``      lookups that compiled fresh
``repro_plan_cache_evictions_total``   LRU evictions at capacity
=====================================  ==================================
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY

__all__ = ["PlanCache", "normalize_query_text",
           "CACHE_HITS", "CACHE_MISSES", "CACHE_EVICTIONS"]

CACHE_HITS = REGISTRY.counter(
    "repro_plan_cache_hits_total", "Plan-cache lookups served from cache")
CACHE_MISSES = REGISTRY.counter(
    "repro_plan_cache_misses_total", "Plan-cache lookups that compiled fresh")
CACHE_EVICTIONS = REGISTRY.counter(
    "repro_plan_cache_evictions_total", "Plans evicted by LRU at capacity")

DEFAULT_CAPACITY = 128


#: ``<name`` may open a direct constructor, whose text content is data.
_TAG_OPEN = re.compile("<[A-Za-z_]")
#: A character ``str.split`` treats as blank but the lexer rejects.
_FOREIGN_BLANK = re.compile(r"[^\S \t\r\n]")


def normalize_query_text(text: str) -> str:
    """The request identity of a query text: trivially reformatted
    queries share plans, distinct queries never do.

    Two texts may share an identity only if they tokenize identically
    and agree byte for byte inside string literals and constructor
    content.  Collapsing the blank runs between tokens is safe exactly
    when the text has neither; whether a quote or a ``<name`` really
    opens one cannot be told without parsing, so a text containing
    either is only stripped at its ends (always safe).  The checks are
    substring scans, cheap enough for every request to pay.
    """
    if ('"' in text or "'" in text
            or "<" in text and _TAG_OPEN.search(text) is not None
            or not text.isprintable()       # a newline, a tab, or worse
            and _FOREIGN_BLANK.search(text) is not None):
        return text.strip(" \t\r\n")
    return " ".join(text.split())


class PlanCache:
    """A thread-safe LRU mapping cache keys to compiled plans.

    The cache stores whatever value object the engine hands it (the
    session layer uses :class:`~repro.engine.prepared.CachedPlan`); it
    owns only the replacement policy and the counters.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise UsageError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        # Local counters mirror the process-wide metrics so one engine's
        # cache behaviour is inspectable even with other engines running.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached plan for ``key``, refreshing its recency; None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                CACHE_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            CACHE_HITS.inc()
            return entry

    def put(self, key: Hashable, plan: Any) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry at capacity.

        Plans that declare a ``verified`` flag (the engine's
        :class:`~repro.engine.prepared.CachedPlan`) must have passed the
        invariant analyzer before they may enter the cache — a cached
        malformed plan would corrupt every subsequent replay.
        """
        if getattr(plan, "verified", None) is False:
            raise UsageError(
                "refusing to cache a plan that has not passed invariant "
                "verification (run repro.analysis.verify_plan first)")
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = plan
                return
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                CACHE_EVICTIONS.inc()
            self._entries[key] = plan

    def stats(self) -> dict[str, int | float | None]:
        """This cache's counters, for ``explain``-style introspection."""
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hits / lookups, 4) if lookups else None,
        }
