"""The invariant rule catalogue.

Every check the analyzer performs has a stable rule ID here, grouped by
the compilation stage it inspects:

========  ==========================================================
prefix    stage
========  ==========================================================
``AST``   the parsed FLWOR expression (variable scoping)
``BT``    the BlossomTree (Definition 1 well-formedness)
``NK``    the NoK decomposition (Algorithm 1 postconditions)
``PL``    the physical plan (operator/strategy applicability)
``QL``    query-vs-data satisfiability (structural-summary lint)
========  ==========================================================

Retired ids are never reused:

* ``SV001`` (a cached plan stamped with a retired snapshot).  Plans are
  keyed by document shape, not by version, so no plan can outlive the
  statistics it was chosen from.
* ``DW001`` / ``DW002`` (the global Dewey assignment's order and
  staleness).  Returning nodes are named by their pattern vertex, so
  there is no assignment to check; what the joins read of it is PL001,
  and :class:`~repro.pattern.artifact.PatternArtifacts` reads its tree
  through its decomposition, so the two cannot come from different
  compiles.
* ``PL004`` (a ``#root``-anchored local chain under the parallel
  strategy).  The partitioned scan matches a ``#root`` NoK only in the
  partition that starts at slot 0 — once per document — so such plans
  answer exactly like the serial scan and nothing is left to refuse.

Severities: an ``error`` means the artifact violates a correctness
precondition — executing it may return wrong results, so
validate-on-compile refuses the plan.  A ``warning`` flags a plan that
is legal but deserves attention (e.g. an order-preservation
precondition that depends on runtime document properties).

The catalogue is data, not code: passes reference rules by ID and the
CLI renders this table, so IDs must stay stable once published.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Severity", "Rule", "RULES", "rule_table"]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One catalogued invariant with a stable ID."""

    rule_id: str
    severity: Severity
    stage: str           # "ast" | "blossom" | "decomposition" | "plan" | "query"
    title: str
    description: str
    remediation: str


_CATALOGUE: tuple[Rule, ...] = (
    Rule("AST001", Severity.ERROR, "ast", "unbound variable",
         "Every variable the FLWOR references must be bound by a for/let "
         "clause (or declared as an external $parameter) before use.",
         "bind the variable in a clause or pass it as an external binding"),
    Rule("AST002", Severity.ERROR, "ast", "duplicate binding",
         "No variable may be bound by two clauses: the restricted grammar "
         "has no shadowing, so a re-binding silently aliases tuples.",
         "rename one of the clauses' variables"),
    Rule("BT001", Severity.ERROR, "blossom", "blossom binding bijection",
         "Every blossom variable is bound to exactly one vertex, that "
         "vertex lists the variable with a for/let kind, and the tree's "
         "var->vertex map agrees with the vertices' own variable lists.",
         "rebuild the tree via build_blossom_tree; never mutate "
         "variables/var_kinds/var_vertex independently"),
    Rule("BT002", Severity.ERROR, "blossom", "edge mode/axis legality",
         "Tree-edge matching modes must be 'f' (mandatory) or 'l' "
         "(optional) and axes must stay inside the pattern-matching "
         "subset; a following-sibling rewrite must reference a sibling "
         "vertex under the same parent.",
         "use MODE_MANDATORY/MODE_OPTIONAL and the supported axis set"),
    Rule("BT003", Severity.ERROR, "blossom", "tree shape consistency",
         "Parent/child bookkeeping must be mutually consistent (each "
         "non-root vertex has exactly one parent edge listed by its "
         "parent), vertex ids dense, and every vertex reachable from "
         "exactly one pattern root — no cycles, no orphans.",
         "construct vertices/edges only through BlossomTree.new_vertex/"
         "new_root/add_edge"),
    Rule("BT004", Severity.ERROR, "blossom", "crossing edge endpoints",
         "Crossing edges must connect two returning vertices of this "
         "tree with a legal relation (<<, >>, is, isnot, =, !=, <, <=, "
         ">, >=, deep-equal).",
         "add crossings via BlossomTree.add_crossing, which marks both "
         "endpoints returning"),
    Rule("BT005", Severity.ERROR, "blossom", "returning upward closure",
         "Returning-ness must be upward closed: a vertex with a returning "
         "descendant must itself be returning, or document-order "
         "projection (Theorem 1) cannot navigate to the descendant.",
         "run the builder's finalize() / decompose()'s re-propagation "
         "after changing returning flags"),
    Rule("BT006", Severity.ERROR, "blossom", "inert optional subtree",
         "An optional ('l'-mode) leaf vertex that binds no variable, "
         "carries no value predicate and is not returning constrains "
         "nothing and projects nothing — it is dead weight, typically "
         "left behind by a partially-built and abandoned chain.",
         "roll back partially built chains when translation of a "
         "where-conjunct fails (BlossomTree.checkpoint/rollback)"),
    Rule("NK001", Severity.ERROR, "decomposition", "cut-edge coverage",
         "Algorithm 1 must cut exactly the global-axis edges: every "
         "inter-NoK edge carries a global axis (descendant), and every "
         "edge kept inside a NoK fragment uses only local axes (child, "
         "self, attribute, following-sibling) so the fragment is "
         "navigation-free.",
         "re-run decompose(); do not flip edge.cut flags by hand"),
    Rule("NK002", Severity.ERROR, "decomposition", "NoK partition",
         "The NoK trees must partition the vertex set: every vertex "
         "belongs to exactly one NoK, is reachable from its NoK root via "
         "uncut edges, and the vertex->NoK map agrees with the member "
         "lists.",
         "re-run decompose() after any change to the BlossomTree"),
    Rule("NK003", Severity.ERROR, "decomposition", "inter-edge forest",
         "Inter-NoK edges must form a forest rooted at the pattern-root "
         "NoKs: endpoints' NoK ids must match the owning fragments, the "
         "child endpoint must be its NoK's root, and every non-root NoK "
         "must be reachable (no cycles, no unreachable fragments).",
         "re-run decompose(); check for manual edits to inter_edges"),
    Rule("PL001", Severity.ERROR, "plan", "join parent is returning",
         "Every inter-NoK edge's parent vertex must be returning: the "
         "match phase keeps only returning vertices' matches, and the "
         "join's left projection reads the parent's.  A non-returning "
         "parent leaves the join nothing to project, so it drops every "
         "tuple.",
         "re-run decompose(), which marks join endpoints returning"),
    Rule("PL002", Severity.ERROR, "plan", "strategy applicability",
         "The chosen strategy must exist and be executable for this "
         "artifact: BlossomTree strategies need a tree and pattern "
         "artifacts; twigstack needs a single //-twig.",
         "let choose_strategy() pick, or request a strategy the query "
         "shape supports"),
    Rule("PL003", Severity.WARNING, "plan", "order-preservation runtime precondition",
         "A pipelined merge join claims ordered output only when distinct "
         "matches of the ancestor pattern do not contain one another "
         "(Theorem 2 / Example 5); on a recursive document, or under a "
         "``*`` join parent (which nests on any document), that "
         "precondition can fail and the range join should run instead.",
         "use strategy='auto' (the optimizer runs the range join, sound "
         "on nesting input)"),
    # -- QL: query-vs-data satisfiability (structural-summary lint).
    # Unlike the stages above, a QL *error* does not mean the plan is
    # broken — it means part of the query provably matches nothing on
    # this document.  The engine runs the plan as built; only a finding
    # on a mandatory path to a pattern root (or a constant-false where /
    # empty return) rewrites it, to the static empty result.
    Rule("QL001", Severity.ERROR, "query", "unsatisfiable step label",
         "A step's name test references an element label that never "
         "occurs in the document's structural summary, so the step — "
         "and every tuple that requires it — matches nothing.",
         "drop the dead branch, or check the label's spelling against "
         "the document; a commit that adds the label makes a new "
         "snapshot, whose plans are linted afresh"),
    Rule("QL002", Severity.ERROR, "query", "label never under required ancestor",
         "The step's label occurs in the document, but never in the "
         "structural relationship the pattern requires (as a child of "
         "its parent step's label, or as a descendant of its ancestor "
         "step's label).",
         "check the axis (child vs descendant) against the document "
         "shape; the summary's path table lists where the label occurs"),
    Rule("QL003", Severity.ERROR, "query", "contradictory value predicates",
         "The step's value predicates can never hold simultaneously "
         "after constant folding: equality on two different constants, "
         "an empty numeric range (e.g. @a > 5 and @a < 3), or a "
         "constant-false predicate.",
         "fix the predicate constants; conjunctive predicates on one "
         "step must be jointly satisfiable"),
    Rule("QL004", Severity.ERROR, "query", "constant-false where clause",
         "The FLWOR where clause folds to false for every tuple (a "
         "constant comparison, or a path the structural summary proves "
         "empty), so the whole expression returns the empty sequence.",
         "remove the dead where conjunct, or fix the path it tests"),
    Rule("QL005", Severity.WARNING, "query", "redundant always-true condition",
         "A predicate or where clause folds to true for every tuple — "
         "it filters nothing and only costs evaluation time.",
         "drop the redundant condition from the query text"),
    Rule("QL006", Severity.ERROR, "query", "attribute never present on label",
         "A predicate tests or compares an attribute that the "
         "structural summary never records on the step's label, so the "
         "existential attribute test is false for every element.",
         "check the attribute name against the document shape (XPath "
         "comparisons over an absent attribute are false, not null)"),
)

#: rule id -> Rule, in catalogue order.
RULES: dict[str, Rule] = {rule.rule_id: rule for rule in _CATALOGUE}


def rule_table() -> str:
    """The catalogue as an aligned text table (CLI ``--rules``)."""
    rows = [(rule.rule_id, rule.severity.value, rule.stage, rule.title)
            for rule in _CATALOGUE]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for rule_id, severity, stage, title in rows:
        lines.append(f"{rule_id:<{widths[0]}}  {severity:<{widths[1]}}  "
                     f"{stage:<{widths[2]}}  {title}")
    return "\n".join(lines)
