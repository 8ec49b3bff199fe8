"""One request, one key, one options carrier.

Every query surface (``Engine``, ``Database``, ``PreparedQuery``,
``QueryService``, the network ``Server`` and ``Client``) builds these
two objects once and hands them down unchanged:

* :class:`QueryOptions` — the validated option carrier.  Its
  constructor is the only place option types and ranges are checked
  (:class:`~repro.errors.UsageError`) and the only caller of
  :func:`~repro.engine.backend.resolve_backend`; its ``to_frame`` /
  ``from_frame`` pair is the only code that spells the v1 wire field
  names (:class:`~repro.errors.ProtocolError` for a malformed field).
* :class:`QueryKey` — the request identity, normalised once, with one
  named view per consumer so no cache knows another's tuple layout.
  It is ``(text, strategy)``: the executor changes where a scan runs,
  never what it answers, so it is not part of the identity.

Like :mod:`repro.engine.backend`, nothing here imports engine modules
the serving layer could cycle through.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.engine.backend import ExecutionBackend, resolve_backend
from repro.engine.plancache import normalize_query_text
from repro.errors import ProtocolError, UsageError
from repro.strategy import STRATEGIES

__all__ = ["QueryOptions", "QueryKey", "check_timeout_ms", "require"]

_INF = float("inf")


def _number(value: Any, kind: type | tuple[type, ...]) -> bool:
    """A finite, non-negative ``kind`` (``bool`` is not a number here;
    ``0 <= nan`` is False, so the chain also rejects NaN)."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and 0 <= value < _INF)


def _bad(name: str, wanted: str, value: object) -> UsageError:
    return UsageError(f"{name}= expects {wanted}, got {value!r}")


def require(name: str, value: Any, wanted: str,
            kind: type | tuple[type, ...] = int, minimum: int = 0) -> None:
    """Refuse a constructor setting that is not a finite ``kind`` >=
    ``minimum`` with a :class:`~repro.errors.UsageError` naming it."""
    if not (_number(value, kind) and value >= minimum):
        raise _bad(name, wanted, value)


def check_timeout_ms(name: str, value: Any) -> None:
    """The one deadline rule, for ``timeout_ms=`` and every
    ``default_timeout_ms=``: ``None`` or a finite, non-negative number
    of milliseconds."""
    if value is not None:
        require(name, value, "a finite, non-negative number of milliseconds",
                (int, float))


class QueryOptions:
    """The per-request options, validated once where the request enters.

    ``strategy``
        The physical plan: a requestable row of
        :data:`repro.strategy.STRATEGIES` (table in
        :mod:`repro.engine.session`).
    ``params``
        Values for the query's external ``$parameters`` (free variables).
    ``timeout_ms``
        A cooperative deadline: the physical operators checkpoint a
        :class:`~repro.xmlkit.storage.CancellationToken` in their scan
        loops and the call raises
        :class:`~repro.errors.QueryTimeoutError` once it expires.
    ``executor``
        The execution backend for the match phase — ``"serial"``,
        ``"threads"``, ``"processes"``, a ``"<kind>:<workers>"`` key or
        an :class:`~repro.engine.backend.ExecutionBackend` (held
        resolved; ``None`` is serial).  Only ``strategy="parallel"``
        plans read it: their partitioned scans run on its pool, and are
        bit-identical to the serial scan by Theorem 1.  No plan choice
        and no cache key depends on it.
    ``work_budget``
        A cap on scanned nodes (DNF emulation), in-process only.
    ``trace``
        Record a span tree and attach it as ``result.trace``.

    A plain slotted object: it is built on every call, so construction
    stays a few checks and attribute stores.
    """

    __slots__ = ("strategy", "params", "timeout_ms", "executor",
                 "work_budget", "trace")

    def __init__(self, strategy: str = "auto",
                 params: Mapping[str, Any] | None = None,
                 timeout_ms: float | None = None,
                 executor: ExecutionBackend | str | None = None,
                 work_budget: int | None = None,
                 trace: bool = False) -> None:
        if not isinstance(strategy, str):
            raise _bad("strategy", "a strategy name", strategy)
        row = STRATEGIES.get(strategy)
        if row is None or row.family == "internal":
            raise UsageError(f"unknown strategy {strategy!r}")
        if params is not None and not isinstance(params, Mapping):
            raise _bad("params", "a mapping", params)
        check_timeout_ms("timeout_ms", timeout_ms)
        if work_budget is not None:
            require("work_budget", work_budget, "a non-negative node count")
        self.strategy = strategy
        #: A private copy (the service queues requests; a caller mutating
        #: its dict meanwhile must not change the run); empty means none.
        self.params = dict(params) if params else None
        self.timeout_ms = timeout_ms
        self.executor = resolve_backend(executor)
        self.work_budget = work_budget
        self.trace = trace

    def with_timeout(self, timeout_ms: float | None) -> QueryOptions:
        """These options under another deadline budget (the service
        measures deadlines from submission and runs with what is left)."""
        return QueryOptions(self.strategy, self.params, timeout_ms,
                            self.executor, self.work_budget, self.trace)

    def to_frame(self) -> dict[str, Any]:
        """The option fields of a v1 request frame.  ``strategy`` and
        ``executor`` (as its canonical key) always travel, so what the
        peer decodes never depends on its defaults; ``work_budget`` and
        ``trace`` are in-process only."""
        frame = {"strategy": self.strategy, "executor": self.executor.key,
                 "params": self.params, "timeout_ms": self.timeout_ms}
        return {name: value for name, value in frame.items()
                if value is not None}

    @classmethod
    def from_frame(cls, frame: Mapping[str, Any],
                   pinned: QueryOptions | None = None,
                   timeout_ms: float | None = None) -> QueryOptions:
        """Decode a request frame's option fields.

        Absent (or ``null``) fields fall back to ``pinned`` — the options
        of the prepared handle an ``execute`` frame names — and to the
        ``timeout_ms`` default; other fields are ignored.  A field of
        the wrong JSON type is a :class:`~repro.errors.ProtocolError`; a
        well-typed but invalid value is the constructor's
        :class:`~repro.errors.UsageError`.
        """
        def field(name: str, kind: type | tuple[type, ...],
                  default: Any = None) -> Any:
            value = frame.get(name)
            if value is None:
                return default
            if not isinstance(value, kind):
                raise ProtocolError(f"malformed frame: field {name!r} "
                                    f"cannot be a {type(value).__name__}")
            return value

        strategy, executor = (("auto", None) if pinned is None
                              else (pinned.strategy, pinned.executor))
        return cls(field("strategy", str, strategy), field("params", dict),
                   field("timeout_ms", (int, float), timeout_ms),
                   field("executor", str, executor))


class QueryKey:
    """The identity of one request: what makes two requests "the same".

    ``text`` is the whitespace-normalised query text — ``None`` for a
    pre-parsed expression, which bypasses every text-keyed cache.  Each
    method is one cache's view and returns the plain tuple that cache
    has always stored, so cache contents (and the ``stats()``
    payload built from them) do not depend on this class.
    """

    __slots__ = ("text", "strategy")

    def __init__(self, source: object, options: QueryOptions) -> None:
        self.text = (normalize_query_text(source)
                     if isinstance(source, str) else None)
        self.strategy = options.strategy

    def plan(self, fingerprint: tuple[Any, ...]) -> tuple[Any, ...]:
        """Plan-cache entry."""
        return (self.text, self.strategy, fingerprint)

    def coalescing(self) -> tuple[Any, ...]:
        """The service's in-flight slot."""
        return (self.text, self.strategy)

    def result(self, snapshot_id: int) -> tuple[Any, ...]:
        """Result-cache entry (the snapshot id leads: the storage
        indexes per-snapshot invalidation on it)."""
        return (snapshot_id, self.text, self.strategy)
