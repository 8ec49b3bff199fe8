"""Query-vs-data satisfiability analysis: the ``QL`` pass family.

Where the AST/BT/NK/DW/PL passes verify that a compiled plan is
*well-formed*, this pass asks a different question: can the query match
anything **on this document**?  It runs at compile time against the
document's :class:`~repro.xmlkit.summary.StructuralSummary` and finds

* steps whose label never occurs, or never occurs in the structural
  relationship the pattern requires (``QL001``/``QL002``),
* value-predicate sets that can never hold simultaneously after
  constant folding (``QL003``), and predicates over attributes the
  label never carries (``QL006``),
* ``where`` clauses that fold to a constant (``QL004`` false /
  ``QL005`` true), and ``return`` paths the summary proves empty.

One finding licenses a rewrite: when an unsatisfiable vertex sits on
a mandatory path to a pattern root (or ``where`` / ``return`` folds to
empty), no tuple can exist and the plan is **statically empty** —
:func:`repro.engine.optimizer.plan_query` answers it without a scan.
A finding on an *optional* branch stays a finding: the plan keeps the
branch, because a constraint outside it (a ``following-sibling``
anchor) may reference it.  The lint itself never raises.

Soundness discipline: the analysis is three-valued (true / false /
unknown) and strictly conservative.  ``unknown`` never triggers a
finding, the structural summary over-approximates (see
:mod:`repro.xmlkit.summary`), and path emptiness ignores predicates —
ignoring a filter only *grows* the approximated result, so "empty even
without the filter" implies "empty with it".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.report import AnalysisReport
from repro.obs.metrics import REGISTRY
from repro.pattern.blossom import (MODE_MANDATORY, BlossomTree,
                                   BlossomVertex)
from repro.xmlkit.summary import DOC_LABEL, StructuralSummary
from repro.xmlkit.tree import parse_number
from repro.xpath.ast import (BooleanExpr, Comparison, Conditional, Expr,
                             FunctionCall, Literal, LocationPath, NameTest,
                             NotExpr, NumberLiteral, RootContext,
                             RootVariable, conjuncts)
from repro.xquery.ast import FLWOR

__all__ = ["QueryLintResult", "analyze_query"]

QUERYLINT_FINDINGS = REGISTRY.counter(
    "repro_querylint_findings_total",
    "Query-lint (QL) findings, labeled by rule ID")


@dataclass
class QueryLintResult:
    """Findings, and the static-empty rewrite they license, for one
    compilation (kept on the cached plan as ``CachedPlan.lint``)."""

    report: AnalysisReport
    #: Why no tuple can exist (``"reason (rule)"``), or ``""``.
    static_empty: str = ""
    #: Distinct rule IDs that fired, in firing order.
    rules: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self) -> None:
        self.rules = tuple(self.report.rule_ids())

    def describe(self) -> list[str]:
        """Lint lines for ``explain`` output."""
        return [f"{finding.rule_id}: {finding.severity.value}: "
                f"[{finding.location}] {finding.message}"
                for finding in self.report.findings]


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

def analyze_query(tree: BlossomTree, summary: StructuralSummary,
                  flwor: FLWOR | None = None,
                  source: str = "<query>") -> QueryLintResult:
    """Run the QL passes; returns the findings and, when one proves
    that no tuple can exist, the static-empty reason.  ``summary``
    describes the one document every pattern root (``doc(uri)`` or
    not) scans."""
    report = AnalysisReport(source=source)
    report.passes_run.append("query")
    empty: list[str] = []
    _vertex_pass(tree, summary, report, empty)
    if flwor is not None:
        _flwor_pass(flwor, summary, _variable_labels(tree), report, empty)
    for finding in report.findings:
        QUERYLINT_FINDINGS.inc(rule=finding.rule_id)
    return QueryLintResult(report, empty[0] if empty else "")


def _variable_labels(tree: BlossomTree) -> dict[str, str | None]:
    """Variable name → element label of its vertex (None if wildcard)."""
    return {name: vertex.name if vertex.name not in ("#root", "*") else None
            for name, vertex in tree.var_vertex.items()}


# ----------------------------------------------------------------------
# Vertex pass: structural satisfiability + predicate constraints.
# ----------------------------------------------------------------------

def _vertex_pass(tree: BlossomTree, summary: StructuralSummary,
                 report: AnalysisReport, empty: list[str]) -> None:
    for vertex in tree.vertices:
        if vertex.name == "#root":
            continue
        unsat = _vertex_unsat(vertex, summary, report)
        if unsat is not None and _mandatory_to_root(vertex):
            rule_id, reason = unsat
            empty.append(f"{reason} ({rule_id})")


def _vertex_unsat(vertex: BlossomVertex, summary: StructuralSummary,
                  report: AnalysisReport) -> tuple[str, str] | None:
    """Report findings for one vertex; return (rule, reason) if unsat."""
    location = f"blossom:V{vertex.vid}"
    name = vertex.name
    if name != "*" and not summary.label_occurs(name):
        reason = f"label '{name}' never occurs in the document"
        report.add("QL001", location, reason)
        return "QL001", reason
    structural = _edge_unsat(vertex, summary)
    if structural is not None:
        report.add("QL002", location, structural)
        return "QL002", structural
    return _predicate_unsat(vertex, summary, report, location)


def _edge_unsat(vertex: BlossomVertex,
                summary: StructuralSummary) -> str | None:
    """Check the vertex against its parent edge's structural relation."""
    edge = vertex.parent_edge
    if edge is None or vertex.name == "*":
        return None
    name, parent = vertex.name, edge.parent
    if parent.name == "#root":
        if edge.axis == "child" and not summary.child_occurs(DOC_LABEL, name):
            return f"'{name}' is not a root element of the document"
        return None
    if parent.name == "*":
        return None
    if edge.axis == "child" and not summary.child_occurs(parent.name, name):
        return (f"'{name}' never occurs as a child of '{parent.name}'")
    if edge.axis in ("descendant", "descendant-or-self") \
            and name != parent.name \
            and not summary.occurs_under(name, parent.name):
        return (f"'{name}' never occurs under '{parent.name}'")
    if edge.axis == "self" and name != parent.name:
        return (f"self-axis test '{name}' can never match an element "
                f"labelled '{parent.name}'")
    return None


def _predicate_unsat(vertex: BlossomVertex, summary: StructuralSummary,
                     report: AnalysisReport,
                     location: str) -> tuple[str, str] | None:
    """Fold the vertex's value predicates; collect attr constraints."""
    if not vertex.value_predicates:
        return None
    constraints: dict[str, _AttrConstraints] = {}
    unsat: tuple[str, str] | None = None
    positional = [p for p in vertex.value_predicates
                  if not isinstance(p, NumberLiteral)]
    for predicate in positional:
        for conjunct in conjuncts(predicate):
            _collect_attr_constraint(conjunct, constraints)
    for attr, constraint in sorted(constraints.items()):
        if not summary.attr_occurs(vertex.name, attr):
            reason = (f"attribute '@{attr}' never occurs on "
                      + (f"'{vertex.name}' elements"
                         if vertex.name != "*" else "any element"))
            report.add("QL006", location, reason)
            unsat = unsat or ("QL006", reason)
            continue
        contradiction = constraint.contradiction(attr)
        if contradiction is not None:
            report.add("QL003", location, contradiction)
            unsat = unsat or ("QL003", contradiction)
    if unsat is not None:
        return unsat
    for predicate in positional:
        folded = _fold(predicate, summary, {}, context_label=vertex.name)
        if folded is False:
            reason = "value predicate folds to constant false"
            report.add("QL003", location, reason)
            unsat = unsat or ("QL003", reason)
        elif folded is True:
            report.add("QL005", location,
                       "value predicate folds to constant true "
                       "(filters nothing)")
    return unsat


def _mandatory_to_root(vertex: BlossomVertex) -> bool:
    """Unsatisfiability propagates up every *mandatory* edge (a match of
    the parent must have a matching child): reaching a pattern root
    means no tuple can exist.  A chain that hangs off an optional edge
    only empties that branch, and the plan keeps it."""
    edge = vertex.parent_edge
    while edge is not None:
        if edge.mode != MODE_MANDATORY:
            return False
        edge = edge.parent.parent_edge
    return True


# ----------------------------------------------------------------------
# Attribute-constraint accumulation (per vertex, conjunctive).
# ----------------------------------------------------------------------

class _AttrConstraints:
    """Conjunctive constraints on one attribute of one step."""

    def __init__(self) -> None:
        self.eq_numbers: list[float] = []
        self.eq_strings: list[str] = []
        self.lower: tuple[float, bool] | None = None   # (bound, inclusive)
        self.upper: tuple[float, bool] | None = None

    def add_eq(self, value: float | str) -> None:
        if isinstance(value, str):
            self.eq_strings.append(value)
        else:
            self.eq_numbers.append(value)

    def add_bound(self, op: str, value: float) -> None:
        if op in (">", ">="):
            candidate = (value, op == ">=")
            if self.lower is None or candidate[0] > self.lower[0] \
                    or (candidate[0] == self.lower[0] and not candidate[1]):
                self.lower = candidate
        elif op in ("<", "<="):
            candidate = (value, op == "<=")
            if self.upper is None or candidate[0] < self.upper[0] \
                    or (candidate[0] == self.upper[0] and not candidate[1]):
                self.upper = candidate

    def contradiction(self, attr: str) -> str | None:
        """A human-readable reason when the constraints cannot all hold."""
        numbers = set(self.eq_numbers)
        # A string equality forces the attribute value; a numeric
        # equality then constrains number(value).  Cross-checking types
        # is unsound without value data, so only same-type pairs count.
        if len(numbers) > 1:
            values = " and ".join(_fmt(v) for v in sorted(numbers))
            return f"@{attr} cannot equal {values} simultaneously"
        if len(set(self.eq_strings)) > 1:
            values = " and ".join(repr(v) for v in sorted(set(
                self.eq_strings)))
            return f"@{attr} cannot equal {values} simultaneously"
        lo, up = self.lower, self.upper
        for value in numbers:
            if lo is not None and (value < lo[0]
                                   or (value == lo[0] and not lo[1])):
                return (f"@{attr} = {_fmt(value)} contradicts "
                        f"@{attr} {'>=' if lo[1] else '>'} {_fmt(lo[0])}")
            if up is not None and (value > up[0]
                                   or (value == up[0] and not up[1])):
                return (f"@{attr} = {_fmt(value)} contradicts "
                        f"@{attr} {'<=' if up[1] else '<'} {_fmt(up[0])}")
        if lo is not None and up is not None:
            if lo[0] > up[0] or (lo[0] == up[0]
                                 and not (lo[1] and up[1])):
                return (f"@{attr} {'>=' if lo[1] else '>'} {_fmt(lo[0])} "
                        f"and @{attr} {'<=' if up[1] else '<'} "
                        f"{_fmt(up[0])} is an empty range")
        return None


def _fmt(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


def _attr_name(expr: Expr) -> str | None:
    """``@name`` as a relative single-step path, else None."""
    if not isinstance(expr, LocationPath):
        return None
    if not isinstance(expr.root, RootContext) or expr.root.absolute:
        return None
    if len(expr.steps) != 1:
        return None
    step = expr.steps[0]
    if step.axis != "attribute" or step.predicates:
        return None
    if isinstance(step.test, NameTest) and step.test.name != "*":
        return step.test.name
    return None


def _collect_attr_constraint(conjunct: Expr,
                             constraints: dict[str, _AttrConstraints]
                             ) -> None:
    """Record what one positive conjunct requires of an attribute.

    Only *positive* occurrences count (``conjuncts`` never descends
    into ``or`` / ``not``): in XPath 1.0 both a bare ``[@a]`` and any
    comparison over ``@a`` are existential, so each requires the
    attribute to be present.
    """
    attr = _attr_name(conjunct)
    if attr is not None:
        constraints.setdefault(attr, _AttrConstraints())
        return
    if not isinstance(conjunct, Comparison):
        return
    attr, literal, flipped = _attr_vs_literal(conjunct)
    if attr is None:
        return
    entry = constraints.setdefault(attr, _AttrConstraints())
    if literal is None:
        return
    op = conjunct.op
    if flipped:
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if op == "=":
        entry.add_eq(literal)
    elif op in ("<", "<=", ">", ">="):
        number = _as_number(literal)
        if number is not None:
            entry.add_bound(op, number)


def _attr_vs_literal(cmp: Comparison
                     ) -> tuple[str | None, float | str | None, bool]:
    """Split ``@a op literal`` → (attr, literal value, literal-on-left)."""
    left_attr = _attr_name(cmp.left)
    right_attr = _attr_name(cmp.right)
    if left_attr is not None and isinstance(cmp.right,
                                            (Literal, NumberLiteral)):
        return left_attr, _literal_value(cmp.right), False
    if right_attr is not None and isinstance(cmp.left,
                                             (Literal, NumberLiteral)):
        return right_attr, _literal_value(cmp.left), True
    # A comparison over @a against a non-literal still requires @a.
    return (left_attr if left_attr is not None else right_attr), None, False


def _literal_value(expr: Expr) -> float | str | None:
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, Literal):
        return expr.value
    return None


def _as_number(value: float | str | None) -> float | None:
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return parse_number(value)
    return None


# ----------------------------------------------------------------------
# FLWOR pass: where-clause and return-path folding.
# ----------------------------------------------------------------------

def _flwor_pass(flwor: FLWOR, summary: StructuralSummary,
                var_labels: dict[str, str | None],
                report: AnalysisReport, empty: list[str]) -> None:
    if flwor.where is not None:
        folded = _fold(flwor.where, summary, var_labels)
        if folded is False:
            reason = "where clause folds to constant false"
            report.add("QL004", "where", reason)
            empty.append(f"{reason} (QL004)")
        elif folded is True:
            report.add("QL005", "where",
                       "where clause folds to constant true "
                       "(filters nothing)")
    unsat = (_path_provably_empty(flwor.return_expr, summary, var_labels)
             if isinstance(flwor.return_expr, LocationPath) else None)
    if unsat is not None:
        rule_id, reason = unsat
        reason = f"return path matches nothing: {reason}"
        report.add(rule_id, "return", reason)
        empty.append(f"{reason} ({rule_id})")


# ----------------------------------------------------------------------
# Three-valued constant folding (True / False / None = unknown).
# ----------------------------------------------------------------------

def _fold(expr: Expr, summary: StructuralSummary,
          var_labels: dict[str, str | None],
          context_label: str | None = None) -> bool | None:
    """Effective-boolean-value folding; None when not statically known."""
    if isinstance(expr, Literal):
        return bool(expr.value)
    if isinstance(expr, NumberLiteral):
        return expr.value != 0 and not math.isnan(expr.value)
    if isinstance(expr, FunctionCall):
        if expr.name == "true" and not expr.args:
            return True
        if expr.name == "false" and not expr.args:
            return False
        return None
    if isinstance(expr, LocationPath):
        if _path_provably_empty(expr, summary, var_labels,
                                context_label) is not None:
            return False
        return None
    if isinstance(expr, NotExpr):
        inner = _fold(expr.operand, summary, var_labels, context_label)
        return None if inner is None else not inner
    if isinstance(expr, BooleanExpr):
        folded = [_fold(op, summary, var_labels, context_label)
                  for op in expr.operands]
        if expr.op == "and":
            if any(value is False for value in folded):
                return False
            if all(value is True for value in folded):
                return True
            return None
        if any(value is True for value in folded):
            return True
        if all(value is False for value in folded):
            return False
        return None
    if isinstance(expr, Conditional):
        condition = _fold(expr.condition, summary, var_labels,
                          context_label)
        if condition is None:
            return None
        branch = expr.then_branch if condition else expr.else_branch
        return _fold(branch, summary, var_labels, context_label)
    if isinstance(expr, Comparison):
        return _fold_comparison(expr, summary, var_labels, context_label)
    return None


def _fold_comparison(cmp: Comparison, summary: StructuralSummary,
                     var_labels: dict[str, str | None],
                     context_label: str | None) -> bool | None:
    # Existential semantics: any comparison over an empty sequence is
    # false, whatever the operator.
    for side in (cmp.left, cmp.right):
        if isinstance(side, LocationPath) and _path_provably_empty(
                side, summary, var_labels, context_label) is not None:
            return False
    left = _literal_value(cmp.left)
    right = _literal_value(cmp.right)
    if left is None or right is None:
        return None
    if cmp.op in ("=", "!="):
        if isinstance(left, str) and isinstance(right, str):
            equal = left == right
        else:
            lnum, rnum = _as_number(left), _as_number(right)
            if lnum is None or rnum is None:
                equal = False             # number(non-numeric) is NaN
            else:
                equal = lnum == rnum
        return equal if cmp.op == "=" else not equal
    lnum, rnum = _as_number(left), _as_number(right)
    if lnum is None or rnum is None:
        return False                      # NaN comparisons are false
    if cmp.op == "<":
        return lnum < rnum
    if cmp.op == "<=":
        return lnum <= rnum
    if cmp.op == ">":
        return lnum > rnum
    if cmp.op == ">=":
        return lnum >= rnum
    return None


def _path_provably_empty(path: LocationPath, summary: StructuralSummary,
                         var_labels: dict[str, str | None],
                         context_label: str | None = None
                         ) -> tuple[str, str] | None:
    """(rule, reason) when the summary proves the path empty, else None.

    Step predicates are ignored: they only shrink the result, so a
    path that is empty without them is empty with them.  The context
    label is tracked through child/descendant/self steps and reset to
    unknown on anything else — unknown contexts fall back to
    document-global checks.
    """
    label: str | None
    at_document = False
    if isinstance(path.root, RootVariable):
        if path.root.name not in var_labels:
            return None
        label = var_labels.get(path.root.name)
    elif isinstance(path.root, RootContext) and not path.root.absolute:
        label = (context_label
                 if context_label not in ("#root", "*") else None)
    else:                                 # absolute (RootDoc/RootContext)
        label = None
        at_document = True
    for step in path.steps:
        test = step.test
        if not isinstance(test, NameTest) or test.name == "*":
            label, at_document = None, False
            continue
        name = step_label = test.name
        if step.axis == "attribute":
            if label is not None:
                if not summary.attr_occurs(label, name):
                    return ("QL006", f"'{label}' elements never carry "
                                     f"attribute '@{name}'")
            elif not summary.attr_occurs_anywhere(name):
                return ("QL006",
                        f"attribute '@{name}' never occurs")
            label, at_document = None, False
            continue
        if not summary.label_occurs(name):
            return ("QL001", f"label '{name}' never occurs in the "
                             "document")
        if step.axis == "child":
            if at_document and not summary.child_occurs(DOC_LABEL, name):
                return ("QL002",
                        f"'{name}' is not a root element of the document")
            if label is not None and not summary.child_occurs(label, name):
                return ("QL002",
                        f"'{name}' never occurs as a child of '{label}'")
        elif step.axis in ("descendant", "descendant-or-self"):
            if label is not None and name != label \
                    and not summary.occurs_under(name, label):
                return ("QL002",
                        f"'{name}' never occurs under '{label}'")
        elif step.axis == "self":
            if label is not None and name != label:
                return ("QL002",
                        f"self-axis test '{name}' can never match an "
                        f"element labelled '{label}'")
        else:
            step_label = ""               # unknown relationship
        label = step_label or None
        at_document = False
    return None
