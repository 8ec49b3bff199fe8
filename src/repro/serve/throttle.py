"""Adaptive admission control for the network serving front end.

The server does not run a fixed worker count: it runs an **admission
window** — the number of requests allowed in flight at once — steered
by observed latency, in the shape of scrapy's AUTOTHROTTLE extension:

* start conservative (a small initial window, not the maximum);
* once enough samples accumulate, compare the observed **p50 latency**
  against ``target_ms`` and move the window toward
  ``window * target_ms / p50`` — averaged with the current window so
  one noisy interval cannot slam the throttle (scrapy's
  ``(delay + target_delay) / 2`` rule, transposed from per-request
  delay to concurrent admissions);
* **back off multiplicatively** the moment the service signals
  overload (:class:`~repro.errors.ServiceOverloadedError`) or a
  request misses its deadline, remembering the pre-backoff window as
  the slow-start threshold;
* **recover in slow-start**: below the threshold the window may double
  per adjustment interval; above it, growth is capped at +1 — climb
  back fast to the last known-good level, then probe gently.

Requests that do not fit the window are rejected immediately (load is
*shed*, not queued), which is what keeps p99 bounded under overload:
the queue never grows beyond what the window admits, and clients get a
fast ``OVERLOADED`` error they can back off on.

Every decision is exported through the ``repro_server_*`` metric
families and mirrored in :meth:`AdmissionController.stats`, which the
server publishes into ``service.stats()``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable

from repro.errors import UsageError
from repro.obs.metrics import REGISTRY

__all__ = ["AdmissionController"]

_WINDOW = REGISTRY.gauge(
    "repro_server_admission_window",
    "Current adaptive admission window (max concurrent requests)")
_INFLIGHT = REGISTRY.gauge(
    "repro_server_inflight",
    "Requests currently admitted by the network server")
_ADMITTED = REGISTRY.counter(
    "repro_server_admitted_total",
    "Requests admitted by the adaptive controller")
_REJECTED = REGISTRY.counter(
    "repro_server_rejected_total",
    "Requests shed because the admission window was full")
_BACKOFFS = REGISTRY.counter(
    "repro_server_backoffs_total",
    "Multiplicative window back-offs (overload or deadline miss)")
_ADJUSTMENTS = REGISTRY.counter(
    "repro_server_window_adjustments_total",
    "Latency-driven window adjustments")
_LATENCY = REGISTRY.histogram(
    "repro_server_request_ms",
    "End-to-end server-side request latency, milliseconds")


class AdmissionController:
    """Latency-targeting admission window (AUTOTHROTTLE shape).

    Parameters
    ----------
    target_ms:
        The p50 latency the controller steers toward.  Below it the
        window grows; above it the window shrinks.
    start_window:
        Initial admissions — deliberately small ("start conservative").
    min_window / max_window:
        Hard clamps on the window.
    adjust_every:
        Completed requests per adjustment interval.
    backoff_factor:
        Multiplier applied on overload/timeout (0 < f < 1).
    backoff_interval_s:
        Refractory period between back-offs, so one burst of failures
        counts as a single congestion event (the cut itself drains the
        stragglers admitted under the old window).
    clock:
        Monotonic seconds source (injectable so tests can start it at
        any epoch — a host booted a minute ago has ``time.monotonic()``
        below any long refractory period).
    """

    def __init__(self, *, target_ms: float = 50.0, start_window: int = 2,
                 min_window: int = 1, max_window: int = 64,
                 adjust_every: int = 8, backoff_factor: float = 0.5,
                 backoff_interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if target_ms <= 0:
            raise UsageError(f"target_ms must be > 0, got {target_ms}")
        if not (1 <= min_window <= start_window <= max_window):
            raise UsageError(
                "admission windows must satisfy 1 <= min_window <= "
                f"start_window <= max_window, got {min_window}/"
                f"{start_window}/{max_window}")
        if not 0.0 < backoff_factor < 1.0:
            raise UsageError(
                f"backoff_factor must be in (0, 1), got {backoff_factor}")
        self.target_ms = target_ms
        self.min_window = min_window
        self.max_window = max_window
        self.adjust_every = max(1, adjust_every)
        self.backoff_factor = backoff_factor
        self.backoff_interval_s = backoff_interval_s
        self.clock = clock

        self._lock = threading.Lock()
        self._window = float(start_window)
        self._ssthresh = float(max_window)
        self._inflight = 0
        self._samples: deque[float] = deque(maxlen=4 * self.adjust_every)
        self._since_adjust = 0
        self._failed_since_adjust = False
        #: ``None`` until the first back-off: the clock's epoch is
        #: arbitrary (boot time on Linux), so no number means "never".
        self._last_backoff: float | None = None
        self._admitted = 0
        self._rejected = 0
        self._backoffs = 0
        self._adjustments = 0
        _WINDOW.set(self._window)

    # ------------------------------------------------------------------
    # The admission decision.
    # ------------------------------------------------------------------

    @property
    def window(self) -> int:
        """The integer window currently enforced."""
        with self._lock:
            return self._int_window()

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _int_window(self) -> int:
        return max(self.min_window, int(self._window))

    def try_acquire(self) -> bool:
        """Admit one request iff the window has room."""
        with self._lock:
            if self._inflight >= self._int_window():
                self._rejected += 1
                _REJECTED.inc()
                return False
            self._inflight += 1
            self._admitted += 1
        _ADMITTED.inc()
        _INFLIGHT.set(self._inflight)
        return True

    def release(self, latency_ms: float | None = None, *,
                overloaded: bool = False, timed_out: bool = False) -> None:
        """Complete one admitted request and steer the window.

        ``latency_ms`` is the end-to-end server-side latency of a
        successful request; ``overloaded``/``timed_out`` flag the two
        congestion signals that trigger a multiplicative back-off.
        """
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
            if overloaded or timed_out:
                self._failed_since_adjust = True
                self._backoff_locked()
            elif latency_ms is not None:
                self._samples.append(latency_ms)
                self._since_adjust += 1
                if self._since_adjust >= self.adjust_every:
                    self._adjust_locked()
        _INFLIGHT.set(self._inflight)
        if latency_ms is not None:
            _LATENCY.observe(latency_ms)

    # ------------------------------------------------------------------
    # Window dynamics (callers hold the lock).
    # ------------------------------------------------------------------

    def _backoff_locked(self) -> None:
        now = self.clock()
        if (self._last_backoff is not None
                and now - self._last_backoff < self.backoff_interval_s):
            return
        self._last_backoff = now
        self._ssthresh = max(float(self.min_window), self._window / 2.0)
        self._window = max(float(self.min_window),
                           self._window * self.backoff_factor)
        self._backoffs += 1
        self._since_adjust = 0
        self._samples.clear()
        _BACKOFFS.inc()
        _WINDOW.set(self._window)

    def _adjust_locked(self) -> None:
        self._since_adjust = 0
        if not self._samples:
            return
        ordered = sorted(self._samples)
        p50 = ordered[len(ordered) // 2]
        proposed = (self._window
                    + self._window * (self.target_ms / max(p50, 1e-6))) / 2.0
        if proposed > self._window:
            if self._failed_since_adjust:
                # Scrapy's rule: never speed up an interval that saw
                # errors — hold the window and let the samples refill.
                self._failed_since_adjust = False
                return
            if self._window < self._ssthresh:
                # Slow-start recovery: at most double per interval
                # until the pre-backoff level is back.
                proposed = min(proposed, self._window * 2.0, self._ssthresh)
            else:
                # Congestion avoidance: probe past the plateau gently.
                proposed = min(proposed, self._window + 1.0)
        self._failed_since_adjust = False
        self._window = min(max(proposed, float(self.min_window)),
                           float(self.max_window))
        self._adjustments += 1
        _ADJUSTMENTS.inc()
        _WINDOW.set(self._window)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The controller's decisions, for ``service.stats()``."""
        with self._lock:
            ordered = sorted(self._samples)
            p50 = ordered[len(ordered) // 2] if ordered else None
            return {
                "window": self._int_window(),
                "window_raw": round(self._window, 3),
                "ssthresh": round(self._ssthresh, 3),
                "inflight": self._inflight,
                "target_ms": self.target_ms,
                "observed_p50_ms": (round(p50, 3)
                                    if p50 is not None else None),
                "admitted": self._admitted,
                "rejected": self._rejected,
                "backoffs": self._backoffs,
                "adjustments": self._adjustments,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AdmissionController window={self.window} "
                f"inflight={self.inflight} target_ms={self.target_ms}>")
