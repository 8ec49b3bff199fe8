"""Public API facade: the :class:`Engine`.

Typical use::

    from repro import Engine, parse

    engine = Engine(parse(xml_text))
    result = engine.query('//book[author]/title')
    print(result.pretty())

Repeated traffic is served without recompilation two ways:

* transparently — every ``query(text)`` goes through an LRU plan cache
  keyed on (normalized text, strategy, structural-summary digest) —
  :meth:`~repro.engine.request.QueryKey.plan` — so the second
  arrival of the same query skips parse, BlossomTree construction, NoK
  decomposition and the optimizer;
* explicitly — ``prepare(text)`` returns a
  :class:`~repro.engine.prepared.PreparedQuery` that pins the compiled
  plan and executes it many times, with external ``$parameter``
  bindings substituted per call.

Plans are keyed by document shape, not version: a ``DocumentUpdater``
edits its own fork of the document and patches the fork's structural
summary, and that summary's digest decides whether the cached plans
apply to the new version; the base version's plans never move.

``Engine.query`` accepts bare path expressions, FLWOR expressions, and
constructor-wrapped FLWORs; ``strategy`` selects the physical plan (the
rows of :data:`repro.strategy.STRATEGIES`, which this table is
checked against):

============= =========================================================
strategy      meaning
============= =========================================================
``auto``      optimizer picks per the Section-5.2 rules (default)
``pipelined`` BlossomTree with pipelined merge ``//``-joins (PL)
``stack``     BlossomTree with region range joins, sound on nesting input
``bnlj``      BlossomTree with bounded nested-loop joins (BNLJ)
``nl``        BlossomTree with naive nested-loop joins (Table 3's NL column)
``twigstack`` holistic twig join over the tag index (TS)
``parallel``  BlossomTree with partition-parallel merged NoK scans
``naive``     direct per-iteration FLWOR semantics (the Section-1 strawman)
``xhive``     simulated commercial navigational engine (XH stand-in)
============= =========================================================

Strategies that do not apply to a query (e.g. ``twigstack`` on a FLWOR
with crossing edges) raise :class:`~repro.errors.CompileError`;
``auto`` never raises — it falls back to ``naive``.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.analysis import verify_plan
from repro.errors import CompileError, DNFError, QueryTimeoutError, UsageError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.physical.parallel_scan import ScanPools
from repro.xmlkit.index import TagIndex
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.storage import CancellationToken, ScanCounters
from repro.xmlkit.summary import StructuralSummary
from repro.xmlkit.tree import Document
from repro.xquery.ast import QueryExpr
from repro.engine.backend import DEFAULT_PARALLEL_WORKERS, ExecutionBackend
from repro.engine.compiler import CompiledQuery, compile_query
from repro.engine.construct import DirectEvaluator, SubstitutingEvaluator
from repro.engine.executor import FLWORExecutor
from repro.engine.explain import render_explain, render_explain_analyze
from repro.engine.optimizer import plan_query
from repro.engine.plancache import PlanCache
from repro.engine.prepared import (
    CachedPlan,
    PreparedQuery,
    normalize_bindings,
)
from repro.engine.request import QueryKey, QueryOptions
from repro.engine.result import Item, QueryResult
from repro.strategy import STRATEGIES

__all__ = ["Engine"]

#: What :meth:`Engine._run` hands the slow-query log from its record
#: stage: ``(plan text, elapsed ms, work-counter deltas, error class)``
#: of the one measurement the run takes.  The owner of the log (a
#: :class:`~repro.engine.database.Database`, the query service) adds
#: what only it knows — client, snapshot, deadline state.
SlowObserver = Callable[[str | None, float, Mapping[str, int],
                         type[BaseException] | None], None]

#: What a ``parallel`` plan runs on when the request's backend cannot
#: partition (``executor=None`` is serial).
_PARTITIONED_DEFAULT = ExecutionBackend("threads", DEFAULT_PARALLEL_WORKERS)

_QUERIES = REGISTRY.counter("repro_queries_total", "Queries executed")
_LATENCY = REGISTRY.histogram("repro_query_latency_ms",
                              "Query wall time in milliseconds")
_DNF = REGISTRY.counter("repro_dnf_total",
                        "Queries aborted by the work budget (DNF)")
_TIMEOUTS = REGISTRY.counter("repro_query_timeout_total",
                             "Queries aborted by deadline expiry")
_NODES = REGISTRY.counter("repro_nodes_scanned_total",
                          "Nodes delivered by sequential scans")
_SCANS = REGISTRY.counter("repro_scans_total",
                          "Sequential scans opened")
_COMPARISONS = REGISTRY.counter("repro_comparisons_total",
                                "Structural/value predicate evaluations")
_INTERMEDIATE = REGISTRY.counter("repro_intermediate_results_total",
                                 "NestedLists buffered between operators")
_PEAK = REGISTRY.gauge("repro_peak_buffered",
                       "Peak NestedLists held in memory (max over queries)")
_QUERYLINT_EMPTY = REGISTRY.counter(
    "repro_querylint_static_empty_total",
    "Queries answered by the static-empty rewrite (no scan executed)")


@dataclass(slots=True)
class _Run:
    """The per-call run context the stage functions read and fill.

    It lives on the stack of one :meth:`Engine._run` call, never on the
    engine: the database hands *one* engine per snapshot to
    every worker, so request-scoped state kept on ``self`` would be
    another request's by the time the record stage read it.
    """

    source: str | QueryExpr
    options: QueryOptions
    key: QueryKey
    counters: ScanCounters | None = None
    tracer: Tracer | NullTracer = NULL_TRACER
    budget: int | None = None
    #: Where the record stage reports to, when a slow log listens.
    slow: SlowObserver | None = None
    cache_status: str | None = None
    #: The strategy that *executed* (the requested one until a plan is
    #: chosen) and its plan text; both leave on the result.
    strategy: str = ""
    plan_text: str | None = None

    def __post_init__(self) -> None:
        self.strategy = self.options.strategy


class Engine:
    """A query engine bound to one document.

    Parameters
    ----------
    doc:
        The document every query reads: a path with or without
        ``doc("uri")`` scans it, whatever the uri, as on every serving
        surface (a database holds one document; neither the request nor
        the query names another).
    work_budget:
        Optional cap on scanned nodes per query (DNF emulation); can be
        overridden per call.
    plan_cache:
        An externally owned :class:`PlanCache` to share (the serving
        database hands one cache to every snapshot's engine); by default
        the engine owns a private cache of 128 plans.

    What ran is on the result (``result.plan`` / ``result.trace``); a
    run that raised :class:`~repro.errors.DNFError` or
    :class:`~repro.errors.QueryTimeoutError` carries them on the error
    (``exc.plan``, and ``exc.trace`` when traced).  Nothing about a run
    stays on the engine, which the database shares.
    """

    def __init__(self, doc: Document,
                 work_budget: int | None = None,
                 plan_cache: PlanCache | None = None) -> None:
        self.doc = doc
        self.work_budget = work_budget
        #: :class:`~repro.physical.parallel_scan.ScanPools` the partition
        #: tasks of parallel plans run on (``None`` = the process-wide
        #: fallback; the database stamps the one it owns, so its
        #: ``close()`` shuts it down).
        self.scan_pools: ScanPools | None = None
        #: LRU of compiled plans, keyed by (text, strategy,
        #: structural-summary digest) — ``QueryKey.plan`` over
        #: :meth:`stats_fingerprint` — so a reshaped document never
        #: matches old entries.
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache())
        #: Set by the database when it retires this engine's
        #: snapshot (``"snapshot 3"``); every call then refuses.
        self.retired: str | None = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def query(self, text: str | QueryExpr, *,
              strategy: str = "auto",
              counters: ScanCounters | None = None,
              work_budget: int | None = None,
              trace: bool = False,
              tracer: Tracer | None = None,
              params: dict | None = None,
              timeout_ms: float | None = None,
              executor: ExecutionBackend | str | None = None) -> QueryResult:
        """Evaluate a query and return its result sequence.

        The options are the fields of
        :class:`~repro.engine.request.QueryOptions` — strictly
        keyword-only and spelled identically on every query surface —
        plus ``counters`` (accumulate work into the caller's
        :class:`~repro.xmlkit.storage.ScanCounters`) and ``tracer`` (an
        external tracer instead of ``trace=True``'s own).  The traced
        span tree covers the whole pipeline (compile → optimize →
        match/join/bind/finish, one child span per NoK scan and per
        inter-NoK join) and leaves on the result as ``result.trace``.

        Plans are served from :attr:`plan_cache` when an identical
        (normalized) query was compiled before against a document of
        the same shape; the ``query`` span's ``plan-cache`` attribute
        says whether this call ``hit``, ``miss``-ed, or ``bypass``-ed
        the cache (pre-parsed expressions are never cached).
        """
        return self._run(text, QueryOptions(strategy, params, timeout_ms,
                                            executor, work_budget, trace),
                         counters=counters, tracer=tracer)

    def prepare(self, text: str | QueryExpr, *,
                strategy: str = "auto",
                executor: ExecutionBackend | str | None = None
                ) -> PreparedQuery:
        """Compile ``text`` once for repeated execution.

        The full pipeline (parse → BlossomTree → NoK decomposition →
        strategy choice) runs now; the returned
        :class:`~repro.engine.prepared.PreparedQuery` replays the plan
        on every ``execute(params=...)``.  Free ``$variables`` in the
        query become external parameters that ``execute`` must bind.
        ``executor`` is the backend every ``execute`` runs on unless
        it names another (same semantics as :meth:`query`).
        """
        self._check_live()
        options = QueryOptions(strategy, executor=executor)
        run = _Run(text, options, QueryKey(text, options))
        return PreparedQuery(self, text, options, run.key, self._plan(run))

    def stats_fingerprint(self) -> tuple:
        """The plan-cache key component tied to the document: its
        structural summary's digest.

        A plan reads nothing of the document but the statistics and the
        summary the digest covers, so every version of one shape shares
        a plan, and a version of another shape never matches it.
        """
        return (self.doc.derived.summary.fingerprint(),)

    # ------------------------------------------------------------------
    # The request path: one run context through a short stage list —
    # plan (cached, or compile → optimizer.plan_query → verify)
    # → execute → record.  Every surface enters through _run.
    # ------------------------------------------------------------------

    def _run(self, source: str | QueryExpr, options: QueryOptions,
             key: QueryKey | None = None, *,
             counters: ScanCounters | None = None,
             tracer: Tracer | None = None,
             prepared: PreparedQuery | None = None,
             slow: SlowObserver | None = None) -> QueryResult:
        """Counters/budget/tracing/metrics shell around one execution.

        ``key`` is the identity the caller already built (the service
        and prepared queries have one; ``None`` builds it here);
        ``prepared`` supplies a pinned plan instead of the plan cache;
        ``slow`` receives this run's one measurement (a slow-query log
        is listening).
        """
        self._check_live()
        counters = counters if counters is not None else ScanCounters()
        budget = (options.work_budget if options.work_budget is not None
                  else self.work_budget)
        if budget is not None:
            counters.budget = budget
        previous_token = counters.cancellation
        if options.timeout_ms is not None:
            counters.cancellation = CancellationToken(options.timeout_ms)
        if tracer is None:
            tracer = Tracer() if options.trace else NULL_TRACER
        run = _Run(source, options, key or QueryKey(source, options),
                   counters, tracer, budget, slow)
        before = counters.snapshot()
        started = time.perf_counter_ns()
        try:
            with tracer.span("query", strategy=options.strategy) as qspan:
                if run.key.text is not None:
                    qspan.set(source=run.key.text[:160])
                if counters.cancellation is not None:
                    # An exhausted deadline must fail deterministically
                    # even for queries too small to reach a checkpoint.
                    try:
                        counters.cancellation.check()
                    except QueryTimeoutError:
                        qspan.set(timed_out=True)
                        _TIMEOUTS.inc()
                        raise
                plan = (self._plan(run) if prepared is None
                        else prepared.current_plan(self, run))
                qspan.set(**{"plan-cache": run.cache_status})
                try:
                    result = self._execute(run, plan)
                    if counters.cancellation is not None:
                        counters.cancellation.check()
                except DNFError as exc:
                    qspan.set(budget_tripped=True, budget=exc.budget,
                              nodes_scanned=counters.nodes_scanned)
                    _DNF.inc(strategy=run.strategy)
                    exc.plan = run.plan_text
                    raise
                except QueryTimeoutError as exc:
                    qspan.set(timed_out=True,
                              nodes_scanned=counters.nodes_scanned)
                    _TIMEOUTS.inc()
                    exc.plan = run.plan_text
                    raise
                qspan.set(plan=run.plan_text, items=len(result))
        finally:
            counters.cancellation = previous_token
            elapsed_ms = (time.perf_counter_ns() - started) / 1e6
            self._record(run, before, elapsed_ms)
            trace = tracer.finish() if tracer is not NULL_TRACER else None
            failure = sys.exc_info()[1]
            if isinstance(failure, (DNFError, QueryTimeoutError)):
                failure.trace = trace
        result.trace = trace
        result.counters = counters
        result.plan = run.plan_text
        result.strategy = run.strategy
        return result

    # ------------------------------------------------------------------
    # Plan stage.
    # ------------------------------------------------------------------

    def _plan(self, run: _Run) -> CachedPlan:
        """Get a plan from the cache or compile one; sets
        ``run.cache_status`` to ``hit`` / ``miss`` / ``bypass``
        (pre-parsed expressions are never cached)."""
        key = run.key
        if key.text is None:
            plan = self._build(run)
            run.cache_status = "bypass"
            return plan
        cache_key = key.plan(self.stats_fingerprint())
        plan = self.plan_cache.get(cache_key)
        if plan is not None:
            run.cache_status = "hit"
            return plan
        plan = self._build(run)
        self.plan_cache.put(cache_key, plan)
        run.cache_status = "miss"
        return plan

    def _build(self, run: _Run) -> CachedPlan:
        """The full compile pipeline: parse → analyze → BlossomTree →
        choose → verify.  Every static check runs exactly once here:
        the semantic analysis and the tree verifier inside
        ``compile_query``, the lint inside the chooser
        (:func:`~repro.engine.optimizer.plan_query` — the whole static
        decision is that one call), the decomposition and plan passes
        below."""
        tracer = run.tracer
        compiled = compile_query(run.source, tracer=tracer)
        plan = plan_query(compiled, run.key, self, tracer)
        # Validate-on-compile: every stage of the compiled artifact is
        # checked against the invariant catalogue before the plan can be
        # cached or executed; error findings raise PlanInvariantError.
        # The tree itself was verified by compile_query right after its
        # build, and every plan runs that tree.
        with tracer.span("verify-plan") as span:
            report = verify_plan(
                plan, recursive_document=self.stats.recursive,
                tree_verified=True)
            span.set(findings=len(report.findings),
                     rules=",".join(report.rule_ids()) or "-")
        plan.verified = True
        return plan

    # ------------------------------------------------------------------
    # Execute stage.
    # ------------------------------------------------------------------

    def _execute(self, run: _Run, plan: CachedPlan) -> QueryResult:
        """Run one compiled plan (the execution half of the pipeline)."""
        compiled, choice = plan.compiled, plan.choice
        counters, tracer = run.counters, run.tracer
        run.strategy, run.plan_text = choice.strategy, str(choice)
        values = normalize_bindings(compiled.parameters, run.options.params)

        if choice.strategy == "static-empty":
            # Query lint proved the pattern matches nothing on this
            # document shape: answer without scanning a single node.
            _QUERYLINT_EMPTY.inc()
            with tracer.span("execute", plan="static-empty"):
                if compiled.query is compiled.flwor:
                    return QueryResult([])
                # The FLWOR core is empty but it sits inside a larger
                # expression (e.g. element construction): substitute []
                # for the core and evaluate the rest normally.
                return self._wrap(compiled, [], values)
        if choice.strategy == "naive":
            return self._execute_naive(run, compiled, values, "naive")
        if choice.strategy == "xhive":
            from repro.baseline.xhive import XHiveSimulator

            with tracer.span("execute", plan="xhive"):
                simulator = XHiveSimulator(self.doc, counters)
                return simulator.run(compiled.query, values)

        assert compiled.flwor is not None and compiled.tree is not None
        row = STRATEGIES[choice.strategy]
        backend = run.options.executor if row.partitions else None
        if backend is not None and backend.parallelism < 2:
            # A partitioned plan always partitions: under a spec that
            # cannot (serial, or one worker) it runs on the default
            # thread fan-out.
            backend = _PARTITIONED_DEFAULT
        executor = FLWORExecutor(
            self.doc, join_algorithm=plan.join,
            counters=counters, tracer=tracer, backend=backend,
            scan_pools=self.scan_pools)
        try:
            with tracer.span("execute", plan=choice.strategy):
                if row.family == "holistic":
                    items = executor.execute_twigstack(compiled.flwor,
                                                       plan.artifacts)
                else:
                    items = executor.execute(compiled.flwor, plan.artifacts,
                                             values)
        except CompileError:
            if plan.requested != "auto":
                raise
            # Late compile failure under auto: fall back to direct
            # evaluation rather than surfacing an internal limitation.
            run.strategy, run.plan_text = "naive", "naive (late fallback)"
            return self._execute_naive(run, compiled, values, run.plan_text)
        run.plan_text = str(choice) + "; " + "; ".join(executor.plan_notes)

        if compiled.query is compiled.flwor:
            return QueryResult(items)
        with tracer.span("construct-wrapper"):
            return self._wrap(compiled, items, values)

    def _execute_naive(self, run: _Run, compiled: CompiledQuery,
                       values: dict, label: str) -> QueryResult:
        """Direct per-iteration evaluation (the Section-1 strawman)."""
        with run.tracer.span("execute", plan=label):
            evaluator = DirectEvaluator(self.doc, work_budget=run.budget)
            return QueryResult(
                evaluator.eval_query_expr(compiled.query, dict(values)))

    def _wrap(self, compiled: CompiledQuery, items: list[Item],
              values: dict) -> QueryResult:
        """Evaluate the expression enclosing the FLWOR core around the
        core's precomputed ``items``."""
        wrapper = SubstitutingEvaluator(self.doc, compiled.flwor, items)
        return QueryResult(
            wrapper.eval_query_expr(compiled.query, dict(values)))

    # ------------------------------------------------------------------
    # Record stage.
    # ------------------------------------------------------------------

    def _record(self, run: _Run, before: dict[str, int],
                elapsed_ms: float) -> None:
        """Feed the registry (and the slow log, when one listens) with
        this run's actuals, labelled by the *executed* strategy.

        Counter *deltas* (not absolutes) because callers may reuse one
        :class:`ScanCounters` across several queries.
        """
        counters, strategy = run.counters, run.strategy
        _QUERIES.inc(strategy=strategy)
        _LATENCY.observe(elapsed_ms, strategy=strategy)
        delta = {name: getattr(counters, name) - before[name]
                 for name in ("nodes_scanned", "comparisons",
                              "intermediate_results")}
        _NODES.inc(delta["nodes_scanned"])
        _SCANS.inc(counters.scans_started - before["scans_started"])
        _COMPARISONS.inc(delta["comparisons"])
        _INTERMEDIATE.inc(delta["intermediate_results"])
        _PEAK.max(counters.peak_buffered)
        if run.slow is not None:
            after = counters.snapshot()
            run.slow(run.plan_text, elapsed_ms,
                     {name: after[name] - before[name] for name in after},
                     sys.exc_info()[0])

    def explain(self, text: str | QueryExpr, strategy: str = "auto") -> str:
        """Describe the plan that ``query`` would run (without running it)."""
        self._check_live()
        return render_explain(self, text, strategy)

    def explain_analyze(self, text: str | QueryExpr,
                        strategy: str = "auto",
                        work_budget: int | None = None, *,
                        params: dict | None = None,
                        timeout_ms: float | None = None) -> str:
        """Execute the query under tracing and render per-operator rows.

        Each NoK scan and each inter-NoK join gets one row showing
        measured wall time, nodes scanned, comparisons and output
        cardinality next to the cost model's estimates (both in the
        model's currency, expected nodes touched), so every estimate is
        directly auditable against the run.
        """
        return render_explain_analyze(self, self.query(
            text, strategy=strategy, work_budget=work_budget, trace=True,
            params=params, timeout_ms=timeout_ms))

    @property
    def stats(self) -> DocumentStats:
        """Read-through: the document's ``derived.stats``."""
        return self.doc.derived.stats

    @property
    def summary(self) -> StructuralSummary:
        """Read-through: the document's ``derived.summary``."""
        return self.doc.derived.summary

    @property
    def index(self) -> TagIndex:
        """Read-through: the document's ``derived.index``."""
        return self.doc.derived.index

    def _check_live(self) -> None:
        """Refuse every call once the database retired this engine's
        snapshot: its version is gone, and nothing would drop the
        derived state a late read rebuilt."""
        if self.retired is not None:
            raise UsageError(f"{self.retired} has been retired: an "
                             "engine is valid until the next commit")
