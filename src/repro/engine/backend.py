"""The execution-backend spec shared by every query surface.

The ``executor=`` option (:class:`~repro.engine.request.QueryOptions`)
names *how* the scan phase executes — ``"serial"``, ``"threads"`` or
``"processes"`` — and with how many workers, instead of leaking a
thread count through every layer and leaving the backend choice
implicit.

It decides where a scan runs, never what the plan is: no plan, cache
or coalescing key reads it, since Theorem 1 makes a partitioned scan
answer exactly what the serial one does.  :attr:`ExecutionBackend.key`
is its canonical string form (``"serial"``, ``"threads:4"``,
``"processes:4"``) and is what the v1 wire protocol carries.

This module deliberately imports nothing from the rest of the engine so
the serving layer can use it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UsageError

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
        if kind == "serial":
            if sep:
                raise UsageError(
                    f"malformed execution backend key {key!r}: the "
                    "serial backend takes no worker count")
            return _SERIAL
        if not sep:
            return cls(kind=kind, workers=DEFAULT_PARALLEL_WORKERS)
        try:
            workers = int(count)
        except ValueError:
            raise UsageError(
                f"malformed execution backend key {key!r}") from None
        return cls(kind=kind, workers=workers)


#: The ``executor=None`` default (frozen, so safely shared).
_SERIAL = ExecutionBackend()


def resolve_backend(executor: "ExecutionBackend | str | None"
                    ) -> ExecutionBackend:
    """Normalize an ``executor=`` argument into an :class:`ExecutionBackend`.

    Accepts the dataclass itself, a kind name (``"threads"``), a full
    key (``"processes:8"``), or ``None`` — serial.
    """
    if executor is None:
        return _SERIAL
    if isinstance(executor, ExecutionBackend):
        return executor
    if isinstance(executor, str):
        return ExecutionBackend.from_key(executor)
    raise UsageError(
        f"executor= expects an ExecutionBackend or backend name, "
        f"got {type(executor).__name__}")
