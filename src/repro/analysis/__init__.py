"""Plan invariant analysis: a static verifier for compiled query artifacts.

The engine compiles once and replays cached plans many times, so a
single malformed BlossomTree or NoK decomposition would corrupt every subsequent execution.  This package walks each
stage of a compiled query against a catalogue of declared invariants
(stable rule IDs ``AST*``/``BT*``/``NK*``/``PL*`` — see
:mod:`repro.analysis.rules`) and reports findings with severity,
location and a remediation hint.  The ``QL*`` family
(:mod:`repro.analysis.query`) is different in kind: it checks the
query against the *document's* structural summary, and its findings
are reported rather than refused; one that proves no tuple can exist
licenses the static-empty plan.

Three consumers:

* the engine verifies every freshly built plan before it enters the
  plan cache (``repro_plan_verify_*`` counters, ``verify-plan`` span);
* ``python -m repro.analysis`` lints query files, the examples corpus
  and the benchmark workloads, exiting non-zero on errors;
* the test suite's autouse fixture verifies every plan the tier-1
  tests compile, turning the whole corpus into analyzer coverage.
"""

from repro.analysis.analyzer import (
    analyze_artifacts,
    analyze_plan,
    analyze_tree,
    verify_artifacts,
    verify_plan,
    verify_tree,
)
from repro.analysis.query import QueryLintResult, analyze_query
from repro.analysis.report import AnalysisReport, Finding
from repro.analysis.rules import RULES, Rule, Severity, rule_table

__all__ = [
    "AnalysisReport",
    "Finding",
    "QueryLintResult",
    "RULES",
    "Rule",
    "Severity",
    "analyze_artifacts",
    "analyze_plan",
    "analyze_query",
    "analyze_tree",
    "rule_table",
    "verify_artifacts",
    "verify_plan",
    "verify_tree",
]
