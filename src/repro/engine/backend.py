"""The execution-backend spec shared by every query surface.

The ``executor=`` option (:class:`~repro.engine.request.QueryOptions`)
names *how* the scan phase executes — ``"serial"``, ``"threads"`` or
``"processes"`` — and with how many workers, instead of leaking a
thread count through every layer and leaving the backend choice
implicit.

:class:`ExecutionBackend` is a frozen dataclass so it can sit directly
in plan-cache, result-cache and stats-store keys; :attr:`ExecutionBackend.key`
is its canonical string form (``"serial"``, ``"threads:4"``,
``"processes:4"``) and is what the v1 wire protocol carries.

This module deliberately imports nothing from the rest of the engine
(the strategy table, a leaf itself, aside) so the serving layer can use
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UsageError
from repro.strategy import STRATEGIES

__all__ = ["ExecutionBackend", "BACKEND_KINDS", "DEFAULT_PARALLEL_WORKERS",
           "resolve_backend"]

BACKEND_KINDS = ("serial", "threads", "processes")

#: Worker count used when a parallel backend is named without one.
DEFAULT_PARALLEL_WORKERS = 4


@dataclass(frozen=True)
class ExecutionBackend:
    """How the scan phase of a query executes.

    ``kind`` is one of :data:`BACKEND_KINDS`; ``workers`` is the
    partition fan-out for the parallel kinds (ignored for ``serial``).
    """

    kind: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise UsageError(
                f"unknown execution backend {self.kind!r}; expected one "
                f"of {', '.join(BACKEND_KINDS)}")
        if self.workers < 1:
            raise UsageError(
                f"execution backend needs at least one worker, "
                f"got {self.workers}")

    @property
    def parallelism(self) -> int:
        """Partition fan-out: 1 for serial, ``workers`` otherwise."""
        return 1 if self.kind == "serial" else self.workers

    @property
    def key(self) -> str:
        """Canonical cache/wire form: ``serial`` | ``<kind>:<workers>``."""
        if self.kind == "serial":
            return "serial"
        return f"{self.kind}:{self.workers}"

    @classmethod
    def from_key(cls, key: str) -> "ExecutionBackend":
        """Parse the canonical string form back into a spec."""
        kind, sep, count = key.partition(":")
        if kind == "serial" and not sep:
            return cls()
        if not sep:
            return cls(kind=kind, workers=DEFAULT_PARALLEL_WORKERS)
        try:
            workers = int(count)
        except ValueError:
            raise UsageError(
                f"malformed execution backend key {key!r}") from None
        return cls(kind=kind, workers=workers)


#: The two ``executor=None`` defaults (frozen, so safely shared).
_SERIAL = ExecutionBackend()
_PARALLEL_DEFAULT = ExecutionBackend("threads", DEFAULT_PARALLEL_WORKERS)


def resolve_backend(executor: "ExecutionBackend | str | None",
                    strategy: str = "auto") -> ExecutionBackend:
    """Normalize an ``executor=`` argument into an :class:`ExecutionBackend`.

    Accepts the dataclass itself, a kind name (``"threads"``), a full
    key (``"processes:8"``), or ``None`` — which defaults to a
    four-worker thread backend when the caller explicitly asked for a
    partitioning strategy (``parallel``; preserving the pre-redesign
    default) and to serial otherwise.
    """
    if executor is None:
        row = STRATEGIES.get(strategy)
        return (_PARALLEL_DEFAULT if row is not None and row.partitions
                else _SERIAL)
    if isinstance(executor, ExecutionBackend):
        return executor
    if isinstance(executor, str):
        return ExecutionBackend.from_key(executor)
    raise UsageError(
        f"executor= expects an ExecutionBackend or backend name, "
        f"got {type(executor).__name__}")
