"""The chooser: the whole static plan decision, in its one copy.

The paper leaves full cost-based optimization to future work but states
the decision rules its experiments support (Section 5.2):

* pipelined merge joins are preferred on **non-recursive** documents —
  they are index-free, scan-friendly and comparable to or faster than
  TwigStack there;
* on **recursive** documents the pipelined join is unsound (Example 5 /
  Theorem 2's precondition fails), so a merge with caching (bounded
  memory) or bounded nested loop is used instead.

Here the first two rules are one, a deliberate deviation: ``auto`` runs
the region range join (``stack``,
:func:`~repro.physical.stack_join.stack_desc_join`) on every ``//``
inter edge, flat documents too.  It is sound whether or not either
input nests, so no edge needs the recursion bit or a ``*`` test.  The
pipelined merge stays available by name (``strategy="pipelined"``,
Table 3's PL column; it refuses nesting input).  Further:

* TwigStack is the paper's holistic *baseline* (Table 3's TS column):
  requestable by name, never chosen — ``stack`` answers every
  ``//``-twig on a recursive document identically and, on the Table-3
  cells, faster;
* the naive per-iteration interpreter is the fallback for constructs
  outside the pattern-matching subset.

:func:`choose_strategy` encodes those rules.  :func:`plan_query` is the
one function the engine calls per compile: it validates an explicitly
requested strategy against its row of the strategy table
(:mod:`repro.strategy`), or runs the rules; lets the query lint
short-circuit a provably empty plan (static-empty); prepares the
pattern artifacts; and pins which join every ``//``-edge runs.
``explain`` reads the same decision without executing it.

The decision is static, as in the paper: it reads the query and (for
the lint) the document's structural summary — never the ``executor=``
a request names, nor a record of earlier runs — so the same query over
documents of the same shape (one summary digest) always gets the same
plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.query import QueryLintResult, analyze_query
from repro.errors import CompileError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.pattern.artifact import PatternArtifacts, prepare_artifacts
from repro.pattern.blossom import BlossomTree
from repro.physical.twigstack import twig_supported
from repro.xmlkit.stats import DocumentStats
from repro.engine.request import QueryKey
from repro.strategy import STRATEGIES, Strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session -> optimizer)
    from repro.engine.compiler import CompiledQuery
    from repro.engine.session import Engine

__all__ = ["CachedPlan", "PlanChoice", "choose_strategy", "plan_query"]


@dataclass(frozen=True)
class PlanChoice:
    """The optimizer's decision and its reasoning (for ``explain``)."""

    strategy: str        # an executable row of the strategy table, or static-empty
    reason: str

    def __str__(self) -> str:
        return f"{self.strategy} ({self.reason})"


def choose_strategy(stats: DocumentStats, tree: BlossomTree | None,
                    is_bare_path: bool, has_index: bool,
                    tracer: Tracer | NullTracer | None = None) -> PlanChoice:
    """Pick the physical strategy for a compiled query.

    Parameters
    ----------
    stats:
        Statistics of the engine's document: read only for the span's
        ``recursive`` attribute (no rule needs them since ``auto`` runs
        the range join everywhere), kept because the benchmark's
        compile probes pass them.
    tree:
        The BlossomTree, or ``None`` when compilation failed (forces the
        naive fallback).
    is_bare_path, has_index:
        Unread since ``auto`` stopped choosing TwigStack; kept only
        because the benchmark's compile probes still pass them.
    tracer:
        Optional tracer; records an ``optimize`` span whose attributes
        carry the decision and its reasoning.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("optimize") as span:
        choice = _rules(tree)
        span.set(strategy=choice.strategy, reason=choice.reason,
                 recursive=stats.recursive)
    return choice


def _rules(tree: BlossomTree | None) -> PlanChoice:
    if tree is None:
        return PlanChoice("naive", "query outside the pattern-matching subset")
    return PlanChoice(
        "stack",
        "region range joins over ordered NoK streams, sound whether or "
        "not either side nests")


# ----------------------------------------------------------------------
# The static decision, start to finish.
# ----------------------------------------------------------------------

@dataclass
class CachedPlan:
    """Everything one execution needs, compiled once.

    This is the plan cache's value type: the compiled query (AST +
    BlossomTree + parameters), the optimizer's choice, and the reusable
    pattern artifacts (``None`` when the plan runs outside the
    BlossomTree pipeline — naive, xhive, or a static query).
    """

    compiled: CompiledQuery
    choice: PlanChoice
    artifacts: PatternArtifacts | None
    #: The strategy the caller asked for (``auto`` enables the late
    #: naive fallback; explicit strategies surface CompileError).
    requested: str
    #: Set by the engine once the invariant analyzer accepted the plan;
    #: the plan cache refuses to store plans that never passed it.
    verified: bool = False
    #: The query lint's result for this compilation (its findings, and
    #: the reason when it chose ``static-empty``); ``None`` when the
    #: lint did not run.
    lint: QueryLintResult | None = None
    #: The join algorithm every ``//``-edge runs: the strategy row's
    #: ``join``, else the range join.
    join: str = "stack"


def plan_query(compiled: CompiledQuery, key: QueryKey, env: Engine,
               tracer: Tracer | NullTracer = NULL_TRACER) -> CachedPlan:
    """The static decision sequence: requested strategy (ruled;
    :class:`~repro.engine.request.QueryOptions` validated the name) →
    query lint (static-empty) → pattern artifacts → join pinning.
    The plan comes back unverified: the engine runs the invariant
    passes over it before it may be cached or executed.

    ``env`` is the engine planned for; the chooser reads its document's
    statistics (for the ``optimize`` span) and its summary (only when
    the lint runs).  Every plan runs the tree ``compile_query`` built
    and verified."""
    requested = STRATEGIES[key.strategy]
    choice = _requested(compiled, requested, env, tracer)
    # Query lint (QL rules): check the pattern against the document's
    # structural summary; a plan that provably matches nothing scans
    # nothing.
    lint: QueryLintResult | None = None
    artifacts = None
    tree = compiled.tree
    if tree is not None and requested.lints \
            and STRATEGIES[choice.strategy].lints:
        with tracer.span("query-lint") as span:
            lint = analyze_query(
                tree, env.summary,
                flwor=None if compiled.is_bare_path else compiled.flwor,
                source=compiled.source)
            span.set(findings=len(lint.report.findings),
                     rules=",".join(lint.rules) or "-",
                     static_empty=bool(lint.static_empty))
        if lint.static_empty:
            choice = PlanChoice("static-empty",
                                f"query lint: {lint.static_empty}")
    row = STRATEGIES[choice.strategy]
    if tree is not None and row.patterned:
        with tracer.span("prepare-artifacts") as span:
            artifacts = prepare_artifacts(tree)
            span.set(noks=len(artifacts.decomposition.noks))
    plan = CachedPlan(compiled, choice, artifacts, key.strategy, lint=lint)
    if row.join is not None:
        plan.join = row.join
    return plan


def _requested(compiled: CompiledQuery, row: Strategy, env: Engine,
               tracer: Tracer | NullTracer) -> PlanChoice:
    """The choice a ``strategy=`` request stands for, or the typed
    refusal when the name does not apply to this query."""
    if row.name == "auto":
        return choose_strategy(env.stats, compiled.tree,
                               compiled.is_bare_path, has_index=True,
                               tracer=tracer)
    tree = compiled.tree
    if "tree" in row.requires and tree is None:
        reason = compiled.compile_error
        if "flwor" in row.requires:
            reason = reason or "no FLWOR core"
        raise CompileError(f"{row.name} strategy unavailable: {reason}")
    # Reject inapplicable patterns here, not deep in the executor: the
    # invariant analyzer (rule PL002) refuses to verify a twigstack
    # plan over a non-twig tree.
    if "twig" in row.requires and tree is not None \
            and not twig_supported(tree):
        stepless = len(tree.roots) == 1 and not tree.roots[0].child_edges
        raise CompileError(
            f"{row.name} strategy unavailable: " + (
                "the path has no step under the document node, so there "
                "is no twig root" if stepless else
                "pattern is not a single //-twig (crossing edges, "
                "optional modes or sibling constraints present)"))
    return PlanChoice(row.name, "explicitly requested")

