"""Rule-based physical-operator selection.

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

:func:`choose_strategy` encodes those rules; the engine session calls
it when the caller asks for ``strategy="auto"``.

:class:`StrategyAdvisor` layers measurement on top of the rules: when
the engine runs with feedback enabled, the advisor probes the static
choice against one plausible alternative (a few executions each, read
from the runtime :class:`~repro.obs.statstore.StatsStore`), then
settles on whichever measured faster — demoting the static choice with
hysteresis when the alternative wins (the BENCH_PR5 case: ``parallel``
auto-selected yet measurably slower than the serial pipelined scan).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs.statstore import DemotionRecord, StatsStore
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pattern.blossom import MODE_OPTIONAL, BlossomTree, BlossomVertex
from repro.physical.twigstack import twig_supported
from repro.xmlkit.stats import DocumentStats

__all__ = ["PlanChoice", "StrategyAdvisor", "choose_strategy",
           "prune_pattern", "PARALLEL_SCAN_THRESHOLD",
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

    strategy: str        # "pipelined" | "stack" | "bnlj" | "twigstack" | "naive" | "parallel"
    reason: str

    def __str__(self) -> str:
        return f"{self.strategy} ({self.reason})"


def choose_strategy(stats: DocumentStats, tree: BlossomTree | None,
                    is_bare_path: bool, has_index: bool,
                    tracer: Tracer | None = None,
                    parallelism: int = 1) -> PlanChoice:
    """Pick the physical strategy for a compiled query.

    Parameters
    ----------
    stats:
        Statistics of the (primary) input document.
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
        choice = _choose(stats, tree, is_bare_path, has_index, parallelism)
        span.set(strategy=choice.strategy, reason=choice.reason,
                 recursive=stats.recursive)
    return choice


def _choose(stats: DocumentStats, tree: BlossomTree | None,
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


# ----------------------------------------------------------------------
# Feedback: measured strategy selection over the static rules.
# ----------------------------------------------------------------------

#: Observations of an arm before its mean is trusted for a decision.
MIN_FEEDBACK_SAMPLES = 2

#: The alternative must measure at least this factor faster before the
#: static choice is demoted.  BENCH_PR5's parallel/serial ratio is
#: ~1.04, so 2% keeps that regression demotable while absorbing timer
#: noise on genuinely-equal arms.
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

    @staticmethod
    def alternative(static: str, stats: DocumentStats,
                    tree: BlossomTree | None, is_bare_path: bool,
                    has_index: bool) -> str | None:
        """The one strategy worth measuring against the static choice.

        ``parallel`` probes the serial pipelined scan it upgraded from
        (the partition overhead question); on bare twig-supported paths
        the merge-join choices probe TwigStack and vice versa (the
        Table-3 selectivity question).  ``None`` means the rules have
        no credible contender and feedback stays out of the way.
        """
        if tree is None:
            return None
        if static == "parallel":
            return "pipelined"
        twig_ok = is_bare_path and has_index and twig_supported(tree)
        if not twig_ok:
            return None
        if static in ("pipelined", "stack"):
            return "twigstack"
        if static == "twigstack":
            return "stack" if stats.recursive else "pipelined"
        return None

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
