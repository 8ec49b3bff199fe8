"""Prepared queries: the compile-once / execute-many serving path.

``engine.prepare(text)`` runs the full compile pipeline once — parse →
BlossomTree → NoK decomposition (Algorithm 1) → strategy choice — and
hands back a :class:`PreparedQuery` whose ``execute(params=None)``
replays the compiled plan any number of times.  External ``$parameters`` (variables the query references but
never binds) get their values from ``params`` at execution time; the
compiled plan carries slots for them (late-bound vertex tests for
pushed where-conjuncts, per-tuple tests for the rest), so no
recompilation happens between executions.

A prepared query pins the document-shape fingerprint it was planned
against.  If the document changes shape underneath it — a new version of a
:class:`~repro.engine.database.Database`, whose prepared queries run
on the current snapshot — the next
``execute()`` transparently re-plans (through the shared plan cache)
instead of running a choice the optimizer would no longer make —
execution results were never at risk (plans are document-independent),
but the *strategy* could have gone stale.  A shape-preserving update
keeps the pinned plan, and so does an ``execute(executor=...)``
override: the executor decides where a partitioned scan runs, never
which plan runs.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import BindingError
from repro.engine.backend import ExecutionBackend
from repro.engine.optimizer import CachedPlan
from repro.engine.request import QueryKey, QueryOptions
from repro.xmlkit.tree import Node
from repro.xpath.evaluator import AttrNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session -> prepared)
    from repro.engine.session import Engine, _Run

__all__ = ["CachedPlan", "PreparedQuery", "normalize_bindings"]


def normalize_bindings(parameters: frozenset[str],
                       bindings: dict | None) -> dict[str, Any]:
    """Validate and normalize execution-time parameter bindings.

    Every declared parameter must be bound, every binding must name a
    declared parameter, and every value must live in the XPath value
    model: a string, a number (int is widened to float), a boolean, a
    node, or a sequence (list/tuple) of nodes.  Raises
    :class:`~repro.errors.BindingError` otherwise.
    """
    supplied = dict(bindings or {})
    missing = sorted(parameters - supplied.keys())
    if missing:
        names = ", ".join(f"${name}" for name in missing)
        raise BindingError(f"missing binding for external parameter {names}")
    unknown = sorted(supplied.keys() - parameters)
    if unknown:
        names = ", ".join(f"${name}" for name in unknown)
        raise BindingError(f"binding for unknown parameter {names} "
                           "(the query never references it)")
    normalized: dict[str, Any] = {}
    for name, value in supplied.items():
        normalized[name] = _normalize_value(name, value)
    return normalized


def _normalize_value(name: str, value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (Node, AttrNode)):
        return [value]
    if isinstance(value, (list, tuple)):
        items = list(value)
        for item in items:
            if not isinstance(item, (Node, AttrNode)):
                raise BindingError(
                    f"binding ${name}: sequences may only contain nodes, "
                    f"got {type(item).__name__}")
        return items
    raise BindingError(
        f"binding ${name}: {type(value).__name__} is outside the XPath "
        "value model (expected str, number, bool, node or node sequence)")


class PreparedQuery:
    """A query compiled once, executable many times.

    Obtained from :meth:`Engine.prepare` / :meth:`Database.prepare`;
    not constructed directly.
    """

    def __init__(self, engine: Engine, source: str, options: QueryOptions,
                 key: QueryKey, plan: CachedPlan) -> None:
        #: Where each call finds its engine, as ``(version, engine)``:
        #: the preparing one, or — for :meth:`Database.prepare` — the
        #: current snapshot's, pinned for the call.
        self._reading: Callable[
            [], AbstractContextManager[tuple[object, Engine]]] = \
            partial(nullcontext, (None, engine))
        self.source = source
        self.strategy = options.strategy
        #: Execution backend pinned at prepare() time; ``execute()`` may
        #: override it per call (the plan stays).
        self.executor = options.executor
        self._key = key
        self._plan = plan
        self._fingerprint = engine.stats_fingerprint()

    @property
    def parameters(self) -> frozenset[str]:
        """The external ``$parameters`` execute() must bind."""
        return self._plan.compiled.parameters

    @property
    def plan_description(self) -> str:
        """The optimizer's current choice, for introspection."""
        return str(self._plan.choice)

    def execute(self, *, params: dict | None = None,
                counters=None, work_budget: int | None = None,
                trace: bool = False, tracer=None,
                timeout_ms: float | None = None,
                executor: ExecutionBackend | str | None = None):
        """Run the prepared plan; the options are those of
        :class:`~repro.engine.request.QueryOptions` minus the pinned
        ``strategy``.  ``params`` maps parameter names (without ``$``)
        to values.  ``executor`` overrides the backend pinned at
        prepare() time for this call.
        """
        options = QueryOptions(self.strategy, params, timeout_ms,
                               self.executor if executor is None
                               else executor, work_budget, trace)
        with self._reading() as (_, engine):
            return engine._run(self.source, options, self._key,
                               counters=counters, tracer=tracer,
                               prepared=self)

    def current_plan(self, engine: Engine, run: _Run) -> CachedPlan:
        """The plan stage of one ``execute`` on ``engine`` (its run loop
        asks): the pinned plan, re-planned only if the document changed
        shape."""
        fingerprint = engine.stats_fingerprint()
        if self._fingerprint == fingerprint:
            run.cache_status = "prepared"
            return self._plan
        # The pinned plan is still *correct* (plans are document-
        # independent) but its strategy choice may be stale — re-plan
        # through the cache.
        plan = engine._plan(run)
        run.cache_status = f"prepared-{run.cache_status}"
        self._plan, self._fingerprint = plan, fingerprint
        return plan

    def explain(self) -> str:
        """Describe the plan this prepared query runs."""
        with self._reading() as (_, engine):
            return engine.explain(self.source, strategy=self.strategy)

    def __repr__(self) -> str:
        params = ", ".join(f"${p}" for p in sorted(self.parameters))
        return (f"PreparedQuery({self.source!r}, strategy={self.strategy!r}"
                + (f", parameters=[{params}]" if params else "") + ")")
