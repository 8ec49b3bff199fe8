"""Benchmark-owned spans around calls into the program's layers.

A span is ``{name, start_ns, end_ns, parent, op_id}``; the name *is*
the layer.  Spans stay in memory while the traced phase runs; the
workload child writes them out as JSON lines afterwards.  Two other sources are folded into
the same tree so one op reads as one tree:

* the span tree the public ``trace=True`` API returns
  (:meth:`adopt`), renamed to layer names by :data:`ENGINE_LAYERS`;
* durations the serving layer reports about itself
  (``ServeResult.wait_ms`` ...), placed with :meth:`synth`.

A layer's self time is its spans' duration minus the part their
children cover; :func:`self_times` sums it per layer.
"""

from __future__ import annotations

import time

#: engine span name (``repro.obs.trace``) -> layer name.
ENGINE_LAYERS = {
    "query": "engine.shell",
    "compile": "engine.compile",
    "optimize": "engine.optimize",
    "query-lint": "analysis.lint",
    "prepare-artifacts": "pattern.artifacts",
    "verify-plan": "analysis.verify",
    "execute": "engine.execute",
    "match-phase": "physical.scan",
    "merged-scan": "physical.scan",
    "nok-scan": "physical.scan",
    "partition-scan": "physical.scan",
    "join-phase": "physical.join",
    "inter-join": "physical.join",
    "twigstack": "physical.twigstack",
    "bind-phase": "engine.bind",
    "finish-phase": "engine.finish",
    "construct-wrapper": "engine.construct",
}

#: The per-op wrapper span; its self time is the harness's own loop
#: overhead and is *not* a layer (see ``trace.coverage_share``).
OP = "bench.op"


class SpanRecorder:
    """Append-only span store with a stack for nesting."""

    tracing = True

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent, op_id]
        self._stack: list[int] = []
        self._op_id = -1

    def span(self, name: str, op_id: int | None = None) -> _Open:
        if op_id is not None:
            self._op_id = op_id
        return _Open(self, name)

    def _add(self, name: str, start_ns: int, end_ns: int,
             parent: int | None) -> int:
        self.spans.append([name, start_ns, end_ns, parent, self._op_id])
        return len(self.spans) - 1

    def synth(self, name: str, start_ns: int, duration_ns: float,
              parent: int) -> int:
        """A span the callee reported as a duration only."""
        return self._add(name, start_ns, start_ns + int(duration_ns), parent)

    def end_of(self, index: int) -> int:
        return self.spans[index][2]

    def adopt(self, trace, parent: int) -> None:
        """Graft a ``result.trace`` span tree under ``parent``."""
        if trace is None:
            return

        def graft(span, under: int) -> None:
            index = self._add(ENGINE_LAYERS.get(span.name, "engine.other"),
                              span.start_ns, span.end_ns, under)
            for child in span.children:
                graft(child, index)

        for root in trace.roots:
            graft(root, parent)


class _Open:
    __slots__ = ("_rec", "_name", "index")

    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self._rec = rec
        self._name = name
        self.index = -1

    def __enter__(self) -> _Open:
        rec = self._rec
        parent = rec._stack[-1] if rec._stack else None
        self.index = rec._add(self._name, 0, 0, parent)
        rec._stack.append(self.index)
        rec.spans[self.index][1] = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._rec
        rec.spans[self.index][2] = time.perf_counter_ns()
        rec._stack.pop()
        return False


def self_times(spans: list[list]) -> dict[str, int]:
    """``{layer: total self ns}`` — duration minus children, per name."""
    covered = [0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, int] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start) - covered[index]
    return totals


class _NullOpen:
    __slots__ = ()
    index = -1

    def __enter__(self) -> _NullOpen:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullRecorder:
    """Records nothing: the untraced phases run the same op code."""

    tracing = False
    _open = _NullOpen()

    def span(self, name: str, op_id: int | None = None) -> _NullOpen:
        return self._open

    def synth(self, name: str, start_ns: int, duration_ns: float,
              parent: int) -> int:
        return -1

    def end_of(self, index: int) -> int:
        return 0

    def adopt(self, trace, parent: int) -> None:
        pass


NULL_RECORDER = NullRecorder()
