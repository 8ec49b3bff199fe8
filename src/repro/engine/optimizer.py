"""The chooser: the whole static plan decision, in its one copy.

The paper leaves full cost-based optimization to future work but states
the decision rules its experiments support (Section 5.2):

* pipelined merge joins are preferred on **non-recursive** documents —
  they are index-free, scan-friendly and comparable to or faster than
  TwigStack there;
* on **recursive** documents the pipelined join is unsound (Example 5 /
  Theorem 2's precondition fails), so a stack-based merge (bounded
  memory) or bounded nested loop is used instead;
* TwigStack is the choice when a tag-name index exists and the whole
  query is a ``//``-twig — optimal for all-``//`` patterns;
* the naive per-iteration interpreter is the fallback for constructs
  outside the pattern-matching subset.

:func:`choose_strategy` encodes those rules.  :func:`plan_query` is the
one function the engine calls per compile: it validates an explicitly
requested strategy against its row of the strategy table
(:mod:`repro.strategy`), or runs the rules / the Section-6 cost
model; lets the query lint rewrite the pattern (static-empty, pruning);
prepares the pattern artifacts; withdraws a parallel upgrade the
decomposition cannot carry (PL004); applies measured feedback; and
settles which join each ``//``-edge runs (:func:`edge_join` is the
per-edge half the executor asks).  ``explain`` reads the same decision
without executing it.

:class:`StrategyAdvisor` layers measurement on top of the rules: when
the engine runs with feedback enabled, the advisor probes the static
choice against one plausible alternative (a few executions each, read
from the runtime :class:`~repro.obs.statstore.StatsStore`), then
settles on whichever measured faster — demoting the static choice with
hysteresis when the alternative wins (``parallel`` auto-selected yet
measurably slower than the serial pipelined scan: the benchmark's
``physical.scan_threads2_ms`` against ``physical.scan_serial_ms``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.analysis.passes import partition_unsafe_noks
from repro.analysis.query import QueryLintResult, analyze_query
from repro.errors import CompileError, UsageError
from repro.obs.statstore import DemotionRecord, StatsStore
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.pattern.artifact import PatternArtifacts, prepare_artifacts
from repro.pattern.blossom import MODE_OPTIONAL, BlossomTree, BlossomVertex
from repro.pattern.decompose import InterEdge
from repro.physical.twigstack import twig_supported
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.tree import Document
from repro.engine.backend import ExecutionBackend
from repro.engine.cost import CostModel
from repro.engine.request import QueryKey
from repro.strategy import STRATEGIES, Strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session -> optimizer)
    from repro.engine.compiler import CompiledQuery
    from repro.engine.session import Engine

__all__ = ["CachedPlan", "PlanChoice", "StrategyAdvisor",
           "advise", "choose_strategy", "edge_join", "pattern_document",
           "plan_query", "prune_pattern", "PARALLEL_SCAN_THRESHOLD",
           "MIN_FEEDBACK_SAMPLES", "DEMOTE_MARGIN", "REPROMOTE_MARGIN"]

#: Minimum arena size (in nodes) before ``auto`` trades the serial
#: merged scan for partition-parallel scans when the caller offers
#: ``parallelism > 1``.  Below this the per-partition hand-off costs
#: more than the scan itself; the threshold sits near where the
#: partitioner's own minimum partition size stops cutting anyway.
PARALLEL_SCAN_THRESHOLD = 4_096


@dataclass(frozen=True)
class PlanChoice:
    """The optimizer's decision and its reasoning (for ``explain``)."""

    strategy: str        # an executable row of the strategy table, or static-empty
    reason: str

    def __str__(self) -> str:
        return f"{self.strategy} ({self.reason})"


def choose_strategy(stats: DocumentStats, tree: BlossomTree | None,
                    is_bare_path: bool, has_index: bool,
                    tracer: Tracer | NullTracer | None = None,
                    parallelism: int = 1) -> PlanChoice:
    """Pick the physical strategy for a compiled query.

    Parameters
    ----------
    stats:
        Statistics of the document the pattern runs on.
    tree:
        The BlossomTree, or ``None`` when compilation failed (forces the
        naive fallback).
    is_bare_path:
        Whether the query is a single path expression (TwigStack is only
        applicable there).
    has_index:
        Whether a tag-name index is available (TwigStack requires one).
    tracer:
        Optional tracer; records an ``optimize`` span whose attributes
        carry the decision and its reasoning.
    parallelism:
        Partition budget the caller is willing to spend on the match
        phase.  With ``parallelism > 1`` and a document past
        :data:`PARALLEL_SCAN_THRESHOLD`, the non-recursive merged-scan
        plan upgrades to the ``parallel`` strategy (partition-parallel
        scans, Theorem 1 concatenation); recursive documents keep
        their stack/twigstack choice — the parallel upgrade only
        replaces the pipelined outcome.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("optimize") as span:
        choice = _rules(stats, tree, is_bare_path, has_index, parallelism)
        span.set(strategy=choice.strategy, reason=choice.reason,
                 recursive=stats.recursive)
    return choice


def _rules(stats: DocumentStats, tree: BlossomTree | None,
           is_bare_path: bool, has_index: bool,
           parallelism: int = 1) -> PlanChoice:
    if tree is None:
        return PlanChoice("naive", "query outside the pattern-matching subset")
    if stats.recursive:
        if is_bare_path and has_index and twig_supported(tree):
            return PlanChoice(
                "twigstack",
                f"recursive document (degree {stats.recursion_degree}); "
                "holistic twig join is optimal for //-twigs")
        return PlanChoice(
            "stack",
            f"recursive document (degree {stats.recursion_degree}); "
            "pipelined merge is unsound, stack merge bounds memory by depth")
    if parallelism > 1 and stats.n_nodes >= PARALLEL_SCAN_THRESHOLD:
        return PlanChoice(
            "parallel",
            f"non-recursive document of {stats.n_nodes} nodes >= "
            f"{PARALLEL_SCAN_THRESHOLD}; partition-parallel merged scan "
            f"across {parallelism} partitions (Theorem 1 concatenation)")
    return PlanChoice(
        "pipelined",
        "non-recursive document; index-free merge joins over ordered "
        "NoK streams (Theorem 2)")


def edge_join(pinned: str, doc: Document, edge: InterEdge) -> str:
    """The join one ``//``-edge runs: the plan's pinned algorithm, or
    (``"auto"``) the merge join that is sound for this edge's left
    input.  Theorem 2 needs a left input that cannot nest: no ``*``,
    which nests on any document — and no tag inside itself (``doc``,
    the document the edge's NoKs scan, is recursive)."""
    if pinned != "auto":
        return pinned
    nests = edge.parent.name == "*" or doc.derived.stats.recursive
    return "stack" if nests else "pipelined"


def pattern_document(tree: BlossomTree | None, env: Engine) -> Document:
    """The document whose statistics and postings decide a plan for
    ``tree``: the one its roots resolve to — of several, a recursive
    one, since a plan sound for it is sound for the others."""
    docs = [env.resolve_doc(root.doc_uri)
            for root in (tree.roots if tree is not None else ())]
    return next((doc for doc in docs if doc.derived.stats.recursive),
                docs[0] if docs else env.doc)


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
    #: The serving snapshot this plan was compiled against (``None``
    #: outside the serving layer).  The catalog's SV001 gate compares
    #: it against the dropped-snapshot set before reusing the plan.
    snapshot_id: int | None = None
    #: Query lint proved the pattern matches nothing on this document
    #: shape: execution short-circuits to the empty sequence without
    #: scanning (the artifacts slot is ``None``).
    static_empty: bool = False
    #: Human-readable notes of the pruning rewrites applied while
    #: building this plan (empty when the plan runs the tree as
    #: compiled); surfaced by ``explain``/``explain_analyze``.
    rewrites: tuple[str, ...] = ()
    #: The query lint's result for this compilation (findings and the
    #: rewrites they licensed); ``None`` when the lint did not run.
    lint: QueryLintResult | None = None
    #: The rule-based choice before measured advice (``choice`` itself
    #: unless feedback moved it): the re-cost check on a cache hit
    #: re-advises from here instead of re-deriving it.
    static_choice: PlanChoice | None = None
    #: The join algorithm every ``//``-edge is pinned to; ``"auto"``
    #: lets each edge take the merge join sound for its left input
    #: (:func:`~repro.engine.optimizer.edge_join`).
    join: str = "auto"

    def __post_init__(self) -> None:
        if self.static_choice is None:
            self.static_choice = self.choice


def plan_query(compiled: CompiledQuery, key: QueryKey,
               backend: ExecutionBackend, env: Engine,
               tracer: Tracer | NullTracer = NULL_TRACER) -> CachedPlan:
    """The static decision sequence: requested strategy (validated,
    ruled or costed) → query lint (static-empty / pruning rewrite) →
    pattern artifacts → PL004 withdrawal → feedback → join pinning.
    The plan comes back unverified: the engine runs the invariant
    passes over it before it may be cached or executed.

    ``env`` is the engine planned for; the chooser reads the statistics
    (for ``cost``, the postings too) of the document the pattern
    resolves to, the primary document's summary (only when the lint
    runs), and the engine's lint/feedback switches and advisor."""
    requested = STRATEGIES.get(key.strategy)
    if requested is None or requested.family == "internal":
        raise UsageError(f"unknown strategy {key.strategy!r}")
    choice = _requested(compiled, requested, backend.parallelism, env, tracer)
    # Query lint (QL rules): check the pattern against the document's
    # structural summary and rewrite provably-empty work away.
    lint: QueryLintResult | None = None
    rewrites: tuple[str, ...] = ()
    artifacts = None
    tree = compiled.tree
    if env.analyze_queries and tree is not None and requested.lints \
            and STRATEGIES[choice.strategy].lints:
        with tracer.span("query-lint") as span:
            lint = analyze_query(
                tree, env.summary,
                flwor=None if compiled.is_bare_path else compiled.flwor,
                source=compiled.source, foreign_uris=env.foreign_uris)
            span.set(findings=len(lint.report.findings),
                     rules=",".join(lint.rules) or "-",
                     static_empty=lint.static_empty)
        if lint.static_empty:
            reason = lint.static_empty_reason()
            choice = PlanChoice("static-empty", f"query lint: {reason}")
            rewrites = (f"short-circuit to static empty result: {reason}",)
        else:
            vids = lint.prune_vids()
            if vids:
                pruned, notes = prune_pattern(tree, vids)
                if pruned is not None:
                    tree, rewrites = pruned, notes
    chosen = STRATEGIES[choice.strategy]
    if tree is not None and chosen.patterned:
        with tracer.span("prepare-artifacts") as span:
            artifacts = prepare_artifacts(tree)
            span.set(noks=len(artifacts.decomposition.noks))
    if chosen.partitions and chosen is not requested \
            and artifacts is not None \
            and partition_unsafe_noks(artifacts.decomposition):
        # The decomposition (only now available) revealed a NoK whose
        # match work bypasses the partitioned scan (rule PL004), so the
        # upgrade quietly steps back to the serial plan.  An *explicit*
        # strategy="parallel" request keeps the choice and lets the
        # verifier refuse it with PL004.
        choice = PlanChoice(
            "pipelined",
            "parallel upgrade withdrawn: plan has non-partition-"
            "safe NoKs (PL004); serial merged scan instead")
    static_choice = choice
    choice = advise(compiled, key, static_choice, env)
    # Only a *requested* Theorem-2 merge is pinned.  Chosen (rules, cost,
    # feedback), ``pipelined`` names the merge-join family and every edge
    # takes the member that is sound for its left input.
    row = STRATEGIES[choice.strategy]
    join = (row.join if row.join is not None
            and (row is requested or not row.theorem2) else "auto")
    return CachedPlan(compiled, choice, artifacts, key.strategy,
                      snapshot_id=env.snapshot_id,
                      static_empty=choice.strategy == "static-empty",
                      rewrites=rewrites, lint=lint,
                      static_choice=static_choice, join=join)


def _requested(compiled: CompiledQuery, row: Strategy, parallelism: int,
               env: Engine, tracer: Tracer | NullTracer) -> PlanChoice:
    """The choice a ``strategy=`` request stands for, or the typed
    refusal when the name does not apply to this query."""
    if row.name in ("auto", "cost"):
        target = pattern_document(compiled.tree, env)
        if row.name == "cost":
            return _cheapest(compiled, CostModel(target))
        return choose_strategy(target.derived.stats, compiled.tree,
                               compiled.is_bare_path, has_index=True,
                               tracer=tracer, parallelism=parallelism)
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
        raise CompileError(
            f"{row.name} strategy unavailable: pattern is not a "
            "single //-twig (crossing edges, optional modes or "
            "sibling constraints present)")
    reason = "explicitly requested"
    if row.partitions:
        reason += f" ({max(2, parallelism)} partitions)"
    return PlanChoice(row.name, reason)


def _cheapest(compiled: CompiledQuery, model: CostModel) -> PlanChoice:
    """Pick by the Section-6 cost model (expected nodes touched)."""
    if compiled.tree is None:
        return PlanChoice("naive",
                          compiled.compile_error or "no pattern tree")
    for estimate in model.rank(compiled.tree):
        if estimate.cost == float("inf"):
            continue
        if STRATEGIES[estimate.strategy].family == "holistic" \
                and not compiled.is_bare_path:
            continue  # holistic execution only covers bare paths
        return PlanChoice(estimate.strategy, f"cost model: {estimate}")
    return PlanChoice("naive", "cost model found no applicable strategy")


def advise(compiled: CompiledQuery, key: QueryKey, choice: PlanChoice,
           env: Engine) -> PlanChoice:
    """Feedback (opt-in): measured history may adjust the static
    ``choice``.  The advisor only ever moves between pattern strategies
    (pipelined/stack/twigstack/parallel), whose artifacts exist
    regardless of which of them was static.  The engine's re-cost check
    on a cache hit replays only this step, over the plan's stored
    ``static_choice``."""
    tree, static = compiled.tree, STRATEGIES[choice.strategy]
    if not env.feedback or key.strategy != "auto" or key.text is None \
            or tree is None or not static.patterned:
        return choice
    return env.advisor.advise(
        key.text, env.stats_fingerprint(), key.executor, choice,
        _alternative(static, pattern_document(tree, env).derived.stats, tree,
                     compiled.is_bare_path))


def _alternative(static: Strategy, stats: DocumentStats, tree: BlossomTree,
                 is_bare_path: bool) -> str | None:
    """The one strategy worth measuring against the static choice.

    A partitioned plan probes the serial pipelined scan it upgraded
    from (the partition overhead question); on bare twig-supported
    paths the merge-join choices probe TwigStack and vice versa (the
    Table-3 selectivity question).  ``None`` means the rules have no
    credible contender and feedback stays out of the way.
    """
    if static.partitions:
        return "pipelined"
    if not (is_bare_path and twig_supported(tree)):
        return None
    if static.family == "holistic":
        return "stack" if stats.recursive else "pipelined"
    return "twigstack"


# ----------------------------------------------------------------------
# Feedback: measured strategy selection over the static rules.
# ----------------------------------------------------------------------

#: Observations of an arm before its mean is trusted for a decision.
MIN_FEEDBACK_SAMPLES = 2

#: The alternative must measure at least this factor faster before the
#: static choice is demoted.  The partition-parallel scan measured ~1.04x
#: the serial one (``physical.scan_threads2_ms`` over
#: ``physical.scan_serial_ms``), so 2% keeps that regression demotable
#: while absorbing timer noise on genuinely-equal arms.
DEMOTE_MARGIN = 1.02

#: Hysteresis: once settled, the decision only flips if the settled arm's
#: measured mean degrades past this factor of the other arm — a much
#: wider band than the demotion margin, so the choice cannot flap on
#: run-to-run noise.
REPROMOTE_MARGIN = 1.25


class StrategyAdvisor:
    """Explore-then-commit strategy selection from measured latencies.

    For each plan-cache key the advisor compares the static rule-based
    choice against **one** alternative strategy (the pair the paper's
    experiments show is workload-dependent): it runs each arm
    :data:`MIN_FEEDBACK_SAMPLES` times, then settles on the measured
    winner.  Settling *against* the static choice is a demotion —
    counted in ``repro_strategy_demotions_total`` and recorded on the
    store for the introspection surface.  All state lives in the
    :class:`~repro.obs.statstore.StatsStore`, so advice is a pure
    function of recorded history: deterministic, and shared across the
    serving layer's snapshot engines exactly like the observations.
    """

    def __init__(self, store: StatsStore) -> None:
        self.store = store

    def advise(self, text: str, fingerprint: tuple, executor: str,
               static: PlanChoice, alternative: str | None) -> PlanChoice:
        """The strategy to execute now, given the measured history.

        Phases per key: settled decision (with hysteresis re-check) →
        probe the static arm → probe the alternative arm → settle on
        the measured winner.  Safe to call repeatedly for one
        execution — nothing is recorded here, only read (and a settle
        written once both arms are measured).
        """
        if alternative is None or alternative == static.strategy:
            return static
        settled = self.store.settled_strategy(text, fingerprint, executor)
        arms = self.store.arms(text, fingerprint, executor)
        if settled is not None:
            return self._hold_or_flip(text, fingerprint, executor,
                                      static, alternative, settled, arms)
        static_arm = arms.get(static.strategy)
        static_n = static_arm.successes if static_arm else 0
        if static_n < MIN_FEEDBACK_SAMPLES:
            return PlanChoice(static.strategy, static.reason)
        alt_arm = arms.get(alternative)
        alt_n = alt_arm.successes if alt_arm else 0
        if alt_n < MIN_FEEDBACK_SAMPLES:
            return PlanChoice(
                alternative,
                f"feedback probe {alt_n + 1}/{MIN_FEEDBACK_SAMPLES} of "
                f"{alternative} vs static {static.strategy} "
                f"({static_arm.mean_ms:.3f} ms measured)")
        return self._settle(text, fingerprint, executor, static,
                            static_arm, alt_arm)

    # -- decision phases ---------------------------------------------------

    def _settle(self, text: str, fingerprint: tuple, executor: str,
                static: PlanChoice, static_arm, alt_arm) -> PlanChoice:
        """Both arms measured: commit to the winner (maybe demoting)."""
        static_ms = static_arm.mean_ms
        alt_ms = alt_arm.mean_ms
        if alt_ms * DEMOTE_MARGIN < static_ms:
            reason = (f"feedback: demoted {static.strategy} "
                      f"({static_ms:.3f} ms measured) to "
                      f"{alt_arm.strategy} ({alt_ms:.3f} ms)")
            record = DemotionRecord(
                query=text, fingerprint="/".join(map(str, fingerprint)),
                executor=executor, from_strategy=static.strategy,
                to_strategy=alt_arm.strategy, from_mean_ms=static_ms,
                to_mean_ms=alt_ms,
                executions=static_arm.executions + alt_arm.executions,
                reason=reason)
            self.store.settle(text, fingerprint, executor,
                              alt_arm.strategy, record)
            return PlanChoice(alt_arm.strategy, reason)
        self.store.settle(text, fingerprint, executor, static.strategy)
        return PlanChoice(
            static.strategy,
            f"{static.reason}; feedback confirmed ({static_ms:.3f} ms vs "
            f"{alt_arm.strategy} {alt_ms:.3f} ms)")

    def _hold_or_flip(self, text: str, fingerprint: tuple, executor: str,
                      static: PlanChoice, alternative: str, settled: str,
                      arms: dict) -> PlanChoice:
        """Settled decision: hold unless it degraded past the hysteresis."""
        other = alternative if settled == static.strategy else static.strategy
        settled_arm = arms.get(settled)
        other_arm = arms.get(other)
        if (settled_arm and other_arm
                and settled_arm.successes >= MIN_FEEDBACK_SAMPLES
                and other_arm.successes >= MIN_FEEDBACK_SAMPLES
                and settled_arm.mean_ms > other_arm.mean_ms * REPROMOTE_MARGIN):
            reason = (f"feedback: settled {settled} degraded to "
                      f"{settled_arm.mean_ms:.3f} ms vs {other} "
                      f"{other_arm.mean_ms:.3f} ms; flipping")
            record = None
            if other != static.strategy:   # flip away from static = demotion
                record = DemotionRecord(
                    query=text, fingerprint="/".join(map(str, fingerprint)),
                    executor=executor, from_strategy=settled,
                    to_strategy=other, from_mean_ms=settled_arm.mean_ms,
                    to_mean_ms=other_arm.mean_ms,
                    executions=settled_arm.executions + other_arm.executions,
                    reason=reason)
            self.store.settle(text, fingerprint, executor, other, record)
            return PlanChoice(other, reason)
        if settled == static.strategy:
            return PlanChoice(settled, f"{static.reason}; feedback holds")
        return PlanChoice(
            settled,
            f"feedback: measured winner over static {static.strategy}")


# ----------------------------------------------------------------------
# Query-lint pruning rewriter.
# ----------------------------------------------------------------------

def prune_pattern(tree: BlossomTree, prune_vids: list[int]
                  ) -> tuple[BlossomTree | None, tuple[str, ...]]:
    """Cut provably-empty optional branches out of a BlossomTree.

    ``prune_vids`` anchors come from the query lint
    (:func:`repro.analysis.query.analyze_query`): each names the
    topmost vertex of an optional branch whose match is provably the
    empty sequence.  A branch is *removable* only when cutting it
    cannot change any tuple: no vertex in it binds a variable, is
    returning (output / join endpoint / crossing endpoint), or anchors
    a crossing edge.  After removal, parents left as inert optional
    leaves (the BT006 shape) are cascaded away.

    Returns ``(pruned copy, notes)`` — the input tree is never mutated
    (cached compilations share it) — or ``(None, ())`` when no anchor
    is removable.  The copy renumbers vertex ids densely and preserves
    root order, variable bindings, crossing edges and where-conjunct
    dispositions, so it passes the same BT/NK/DW verification as a
    freshly built tree.
    """
    by_vid = {v.vid: v for v in tree.vertices}
    removed: set[int] = set()
    notes: list[str] = []
    for vid in prune_vids:
        anchor = by_vid.get(vid)
        if anchor is None or anchor.parent_edge is None \
                or vid in removed:
            continue
        subtree = list(tree.iter_subtree(anchor))
        if any(v.variables or v.returning for v in subtree):
            continue
        removed.update(v.vid for v in subtree)
        notes.append(f"pruned empty branch at V{anchor.vid} "
                     f"('{anchor.name}', {len(subtree)} vertex(es))")
    if not removed:
        return None, ()
    # Cascade: a parent reduced to an inert optional leaf goes too.
    changed = True
    while changed:
        changed = False
        for vertex in tree.vertices:
            if vertex.vid in removed or vertex.parent_edge is None:
                continue
            if vertex.parent_edge.mode != MODE_OPTIONAL:
                continue
            if vertex.variables or vertex.returning \
                    or vertex.value_predicates:
                continue
            if all(c.vid in removed for c in vertex.children()):
                removed.add(vertex.vid)
                notes.append(f"cascaded inert optional leaf V{vertex.vid} "
                             f"('{vertex.name}')")
                changed = True
    pruned = BlossomTree()
    mapping: dict[int, BlossomVertex] = {}
    for root in tree.roots:
        for vertex in tree.iter_subtree(root):
            if vertex.vid in removed:
                continue
            copy = (pruned.new_root(vertex.name)
                    if vertex.parent_edge is None
                    else pruned.new_vertex(vertex.name))
            copy.value_predicates = list(vertex.value_predicates)
            mapping[vertex.vid] = copy
    for edge in tree.tree_edges:
        if edge.parent.vid in mapping and edge.child.vid in mapping:
            pruned.add_edge(mapping[edge.parent.vid],
                            mapping[edge.child.vid], edge.axis, edge.mode)
    for vertex in tree.vertices:
        if vertex.vid not in mapping:
            continue
        for name in vertex.variables:
            pruned.bind_variable(name, mapping[vertex.vid],
                                 vertex.var_kinds[name])
    for crossing in tree.crossing_edges:
        pruned.add_crossing(mapping[crossing.u.vid], mapping[crossing.v.vid],
                            crossing.relation, crossing.negated)
    for vertex in tree.vertices:          # returning flags last (upward
        if vertex.vid in mapping:         # closure already held)
            mapping[vertex.vid].returning = vertex.returning
    # Each where-conjunct keeps its disposition, re-pointed at the copy.
    moved: dict[int, object] = {
        id(old): new for old, new in zip(tree.crossing_edges,
                                         pruned.crossing_edges)}
    moved.update((id(by_vid[vid]), copy) for vid, copy in mapping.items())
    pruned.where = [replace(conjunct, target=moved.get(id(conjunct.target)))
                    for conjunct in tree.where]
    return pruned, tuple(notes)
