"""Analyzer entry points: compose the passes over compiled artifacts.

Three granularities, matching what callers hold:

* :func:`analyze_tree` — just a BlossomTree (the compiler's
  validate-on-compile hook, before decomposition exists);
* :func:`analyze_artifacts` — a full :class:`PatternArtifacts` bundle
  (tree + NoK decomposition), the executor/CLI view;
* :func:`analyze_plan` — a cached plan (compiled query + strategy
  choice + artifacts), the engine/plan-cache view, which also runs the
  AST pass and the strategy checks.

The ``verify_*`` variants are the enforcement gates: they run the
corresponding analysis, feed the ``repro_plan_verify_*`` counters, and
raise :class:`~repro.errors.PlanInvariantError` when any error-severity
finding fired.  Warnings never block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.passes import (
    ast_pass,
    blossom_pass,
    decomposition_pass,
    plan_pass,
)
from repro.analysis.report import AnalysisReport
from repro.analysis.rules import Severity
from repro.strategy import STRATEGIES
from repro.errors import PlanInvariantError
from repro.obs.metrics import REGISTRY
from repro.pattern.blossom import BlossomTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> analysis)
    from repro.engine.prepared import CachedPlan
    from repro.pattern.artifact import PatternArtifacts
    from repro.xquery.ast import FLWOR

__all__ = [
    "analyze_tree",
    "analyze_artifacts",
    "analyze_plan",
    "verify_tree",
    "verify_artifacts",
    "verify_plan",
]

VERIFY_RUNS = REGISTRY.counter(
    "repro_plan_verify_total",
    "Plan-verification runs, labeled by outcome (ok/warning/error)")
VERIFY_FINDINGS = REGISTRY.counter(
    "repro_plan_verify_findings_total",
    "Individual analyzer findings, labeled by rule ID")


def analyze_tree(tree: BlossomTree, source: str = "<query>",
                 flwor: FLWOR | None = None,
                 external: frozenset[str] = frozenset()) -> AnalysisReport:
    """Run the AST (when a FLWOR is supplied) and BlossomTree passes."""
    report = AnalysisReport(source=source)
    if flwor is not None:
        ast_pass(flwor, report, external=external)
    blossom_pass(tree, report)
    return report


def analyze_artifacts(artifacts: PatternArtifacts,
                      source: str = "<query>",
                      strategy: str | None = None,
                      recursive_document: bool | None = None,
                      tree_verified: bool = False) -> AnalysisReport:
    """Run every pattern-stage pass over one artifacts bundle.

    ``tree_verified`` skips the BlossomTree pass: the engine sets it
    because :func:`verify_tree` already ran over the same tree object
    at compile time and the tree is not mutated in between.
    External callers (CLI, fixtures) leave it off for full coverage.
    """
    report = AnalysisReport(source=source)
    _artifact_passes(artifacts, report, strategy, recursive_document,
                     tree_verified)
    return report


def _artifact_passes(artifacts: PatternArtifacts, report: AnalysisReport,
                     strategy: str | None, recursive_document: bool | None,
                     tree_verified: bool) -> None:
    if not tree_verified:
        blossom_pass(artifacts.tree, report)
    decomposition_pass(artifacts.decomposition, report)
    plan_pass(artifacts.decomposition, report, strategy=strategy,
              recursive_document=recursive_document)


def analyze_plan(plan: CachedPlan, source: str | None = None,
                 recursive_document: bool | None = None,
                 tree_verified: bool = False) -> AnalysisReport:
    """Analyze a cached plan end to end (AST through strategy choice).

    ``tree_verified`` skips the AST and BlossomTree passes, which
    already ran at compile time (see :func:`analyze_artifacts`).
    """
    compiled = plan.compiled
    report = AnalysisReport(
        source=source if source is not None else compiled.source)
    if compiled.flwor is not None and not tree_verified:
        ast_pass(compiled.flwor, report, external=compiled.parameters)
    strategy = plan.choice.strategy
    if plan.artifacts is not None:
        _artifact_passes(plan.artifacts, report, strategy,
                         recursive_document, tree_verified)
    elif strategy in STRATEGIES and STRATEGIES[strategy].patterned:
        report.passes_run.append("plan")
        report.add("PL002", "plan",
                   f"strategy {strategy!r} executes through the BlossomTree "
                   "pipeline but the plan carries no pattern artifacts")
    return report


# ----------------------------------------------------------------------
# Enforcement gates (metrics + raise-on-error).
# ----------------------------------------------------------------------

def _enforce(report: AnalysisReport) -> AnalysisReport:
    outcome = "ok"
    for finding in report.findings:
        VERIFY_FINDINGS.inc(rule=finding.rule_id)
        if finding.severity is Severity.ERROR:
            outcome = "error"
        elif outcome == "ok":
            outcome = "warning"
    VERIFY_RUNS.inc(outcome=outcome)
    if outcome == "error":
        raise PlanInvariantError(report)
    return report


def verify_tree(tree: BlossomTree, source: str = "<query>",
                flwor: FLWOR | None = None,
                external: frozenset[str] = frozenset()) -> AnalysisReport:
    """Gate form of :func:`analyze_tree`; raises on error findings."""
    return _enforce(analyze_tree(tree, source=source, flwor=flwor,
                                 external=external))


def verify_artifacts(artifacts: PatternArtifacts,
                     source: str = "<query>",
                     strategy: str | None = None,
                     recursive_document: bool | None = None,
                     tree_verified: bool = False) -> AnalysisReport:
    """Gate form of :func:`analyze_artifacts`; raises on error findings."""
    return _enforce(analyze_artifacts(
        artifacts, source=source, strategy=strategy,
        recursive_document=recursive_document, tree_verified=tree_verified))


def verify_plan(plan: CachedPlan, source: str | None = None,
                recursive_document: bool | None = None,
                tree_verified: bool = False) -> AnalysisReport:
    """Gate form of :func:`analyze_plan`; raises on error findings."""
    return _enforce(analyze_plan(plan, source=source,
                                 recursive_document=recursive_document,
                                 tree_verified=tree_verified))
