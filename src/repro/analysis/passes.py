"""The analyzer's verification passes, one per compilation stage.

Each pass inspects one artifact of the compile pipeline — the FLWOR
AST, the BlossomTree, the NoK decomposition, the physical-plan
choice — and appends :class:`~repro.analysis.report.Finding`
objects to a shared report.  Passes never mutate what they check and
never raise for an invariant violation (that is the caller's policy);
they are total functions over arbitrarily corrupted inputs, which is
what lets the corruption-fixture tests drive them directly.

These passes are the only implementation of the invariants, and the
engine runs them on every plan it compiles, so the *clean* case is the
hot one: location strings and messages are built only inside a
violation branch, and the identity/vid sets a pass needs are built once
and handed to its sub-checks.
"""

from __future__ import annotations

from repro.analysis.report import AnalysisReport
from repro.strategy import STRATEGIES
from repro.pattern.blossom import (
    MODE_MANDATORY,
    MODE_OPTIONAL,
    BlossomTree,
    BlossomVertex,
    CrossingEdge,
    TreeEdge,
)
from repro.pattern.decompose import Decomposition, InterEdge, NoKTree
from repro.xquery.ast import FLWOR

__all__ = [
    "ast_pass",
    "blossom_pass",
    "decomposition_pass",
    "plan_pass",
]

#: Axes the pattern matcher models at all.
_LEGAL_AXES = ("child", "descendant", "following-sibling", "attribute", "self")
#: Axes that stay inside a NoK fragment (TreeEdge.is_local).
_LOCAL_AXES = ("child", "self", "attribute", "following-sibling")
#: Crossing-edge relations the finish phase can re-verify.
_LEGAL_RELATIONS = ("<<", ">>", "is", "isnot", "=", "!=", "<", "<=", ">",
                    ">=", "deep-equal")


def _at(vertex: BlossomVertex) -> str:
    """Location of a finding on one vertex."""
    return f"blossom:V{vertex.vid}"


def _along(stage: str, edge: TreeEdge | InterEdge) -> str:
    """Location of a finding on one (tree or inter-NoK) edge."""
    return f"{stage}:V{edge.parent.vid}->V{edge.child.vid}"


def _across(edge: CrossingEdge) -> str:
    """Location of a finding on one crossing edge."""
    return f"crossing:V{edge.u.vid}~V{edge.v.vid}"


# ----------------------------------------------------------------------
# AST stage.
# ----------------------------------------------------------------------

def ast_pass(flwor: FLWOR, report: AnalysisReport,
             external: frozenset[str] = frozenset()) -> None:
    """AST001/AST002: variable scoping of the FLWOR core."""
    from repro.xquery.semantics import analyze

    report.passes_run.append("ast")
    for error in analyze(flwor, external=external).errors:
        report.add("AST002" if "bound twice" in error else "AST001",
                   "ast", error)


# ----------------------------------------------------------------------
# BlossomTree stage.
# ----------------------------------------------------------------------

def blossom_pass(tree: BlossomTree, report: AnalysisReport) -> None:
    """BT001-BT006: Definition-1 well-formedness of the BlossomTree."""
    report.passes_run.append("blossom")
    # Identity set shared by all sub-checks.  Identity, not equality:
    # vertices and edges are mutable dataclasses whose generated __eq__
    # walks the whole (cyclic) structure.
    by_id = {id(v) for v in tree.vertices}
    _check_tree_shape(tree, by_id, report)
    _check_bindings(tree, by_id, report)
    _check_edge_modes(tree, report)
    _check_crossings(tree, by_id, report)
    _check_returning_closure(tree, report)
    _check_inert_optionals(tree, report)


def _check_tree_shape(tree: BlossomTree, by_id: set[int],
                      report: AnalysisReport) -> None:
    vertices = tree.vertices
    for index, vertex in enumerate(vertices):
        if vertex.vid != index:
            report.add("BT003", _at(vertex),
                       f"vertex id {vertex.vid} does not match its position "
                       f"{index} in the vertex list (ids must be dense)")
    for root in tree.roots:
        if id(root) not in by_id:
            report.add("BT003", _at(root),
                       "pattern root is not a vertex of this tree")
        if root.parent_edge is not None:
            report.add("BT003", _at(root), "pattern root has a parent edge")
    for edge in tree.tree_edges:
        parent, child = edge.parent, edge.child
        if id(parent) not in by_id or id(child) not in by_id:
            report.add("BT003", _along("blossom", edge),
                       "tree edge endpoint is not a vertex of this tree")
            continue
        if child.parent_edge is not edge:
            report.add("BT003", _along("blossom", edge),
                       f"child V{child.vid} does not point back at this "
                       "edge as its parent edge")
        for listed in parent.child_edges:
            if listed is edge:
                break
        else:
            report.add("BT003", _along("blossom", edge),
                       f"parent V{parent.vid} does not list this edge "
                       "among its child edges")
    edge_ids = {id(e) for e in tree.tree_edges}
    for vertex in vertices:
        for edge in vertex.child_edges:
            if edge.parent is not vertex:
                report.add("BT003", _at(vertex),
                           f"child edge to V{edge.child.vid} does not name "
                           f"V{vertex.vid} as its parent")
        if vertex.parent_edge is not None \
                and id(vertex.parent_edge) not in edge_ids:
            report.add("BT003", _at(vertex),
                       "parent edge is not registered in tree_edges")
    # Reachability: every vertex under exactly one root, no cycles.
    seen: dict[int, int] = {}
    for root in tree.roots:
        if id(root) not in by_id:
            continue
        stack = [root]
        on_path: set[int] = set()
        while stack:
            vertex = stack.pop()
            key = id(vertex)
            if key in on_path:
                report.add("BT003", _at(vertex),
                           "cycle detected in tree edges")
                return
            on_path.add(key)
            seen[key] = seen.get(key, 0) + 1
            for edge in vertex.child_edges:
                stack.append(edge.child)
    for vertex in vertices:
        count = seen.get(id(vertex), 0)
        if count == 0:
            report.add("BT003", _at(vertex),
                       f"vertex {vertex.name!r} is unreachable from every "
                       "pattern root (orphan)")
        elif count > 1:
            report.add("BT003", _at(vertex),
                       f"vertex {vertex.name!r} is reachable {count} times "
                       "(shared subtree or duplicate root)")


def _check_bindings(tree: BlossomTree, by_id: set[int],
                    report: AnalysisReport) -> None:
    for name, vertex in tree.var_vertex.items():
        if id(vertex) not in by_id:
            report.add("BT001", f"blossom:${name}",
                       f"variable ${name} is bound to a vertex that is not "
                       "part of this tree")
            continue
        if name not in vertex.variables:
            report.add("BT001", f"blossom:${name}",
                       f"variable ${name} maps to V{vertex.vid}, but the "
                       "vertex does not list it")
        kind = vertex.var_kinds.get(name)
        if kind != "for" and kind != "let":
            report.add("BT001", f"blossom:${name}",
                       f"variable ${name} on V{vertex.vid} has kind "
                       f"{kind!r}, expected 'for' or 'let'")
    var_vertex = tree.var_vertex
    for vertex in tree.vertices:
        if not vertex.variables:
            continue
        for name in vertex.variables:
            if var_vertex.get(name) is not vertex:
                report.add("BT001", _at(vertex),
                           f"vertex lists variable ${name}, but the tree "
                           "maps that variable elsewhere (bound twice?)")
        if not vertex.returning:
            report.add("BT001", _at(vertex),
                       f"blossom V{vertex.vid} (${','.join(vertex.variables)}) "
                       "is not marked returning")


def _check_edge_modes(tree: BlossomTree, report: AnalysisReport) -> None:
    for edge in tree.tree_edges:
        if edge.mode != MODE_MANDATORY and edge.mode != MODE_OPTIONAL:
            report.add("BT002", _along("blossom", edge),
                       f"illegal matching mode {edge.mode!r} (must be "
                       f"{MODE_MANDATORY!r} or {MODE_OPTIONAL!r})")
        if edge.axis not in _LEGAL_AXES:
            report.add("BT002", _along("blossom", edge),
                       f"axis {edge.axis!r} is outside the pattern-matching "
                       "subset")
    vertices = tree.vertices
    for vertex in vertices:
        after = vertex.after_vid
        if after is None:
            continue
        sibling = vertices[after] if 0 <= after < len(vertices) else None
        if sibling is None:
            report.add("BT002", _at(vertex),
                       f"following-sibling anchor references unknown vertex "
                       f"id {after}")
        elif sibling.parent_edge is None or vertex.parent_edge is None \
                or sibling.parent_edge.parent is not vertex.parent_edge.parent:
            report.add("BT002", _at(vertex),
                       f"following-sibling anchor V{after} is not a sibling "
                       f"of V{vertex.vid} (different parents)")


def _check_crossings(tree: BlossomTree, by_id: set[int],
                     report: AnalysisReport) -> None:
    for edge in tree.crossing_edges:
        if edge.relation not in _LEGAL_RELATIONS:
            report.add("BT004", _across(edge),
                       f"illegal crossing relation {edge.relation!r}")
        for endpoint in (edge.u, edge.v):
            if id(endpoint) not in by_id:
                report.add("BT004", _across(edge),
                           f"crossing endpoint V{endpoint.vid} is not a "
                           "vertex of this tree")
            elif not endpoint.returning:
                report.add("BT004", _across(edge),
                           f"crossing endpoint V{endpoint.vid} is not "
                           "returning — the join cannot project it")


def _check_returning_closure(tree: BlossomTree, report: AnalysisReport) -> None:
    for edge in tree.tree_edges:
        if edge.child.returning and not edge.parent.returning:
            report.add("BT005", _along("blossom", edge),
                       f"V{edge.child.vid} is returning but its parent "
                       f"V{edge.parent.vid} is not — projection cannot "
                       "navigate to it")


def _check_inert_optionals(tree: BlossomTree, report: AnalysisReport) -> None:
    # A ``following-sibling`` predecessor constrains its successor.
    predecessors = {vertex.after_vid for vertex in tree.vertices}
    for vertex in tree.vertices:
        edge = vertex.parent_edge
        if (edge is not None and edge.mode == MODE_OPTIONAL
                and not vertex.child_edges and not vertex.returning
                and not vertex.variables and not vertex.value_predicates
                and vertex.vid not in predecessors):
            report.add("BT006", _at(vertex),
                       f"optional leaf V{vertex.vid} ({vertex.name!r}) binds "
                       "nothing, constrains nothing and is not returning")


# ----------------------------------------------------------------------
# NoK decomposition stage.
# ----------------------------------------------------------------------

def decomposition_pass(dec: Decomposition, report: AnalysisReport) -> None:
    """NK001-NK003: Algorithm-1 postconditions."""
    report.passes_run.append("decomposition")
    tree = dec.tree
    _check_cut_coverage(tree, dec, report)
    _check_partition(tree, dec, report)
    _check_inter_forest(dec, report)


def _check_cut_coverage(tree: BlossomTree, dec: Decomposition,
                        report: AnalysisReport) -> None:
    inter_pairs = {(id(e.parent), id(e.child)) for e in dec.inter_edges}
    for edge in tree.tree_edges:
        if edge.cut:
            if edge.axis in _LOCAL_AXES:
                report.add("NK001", _along("nok-edge", edge),
                           f"local-axis edge ({edge.axis!r}) was cut — NoK "
                           "fragments must keep / and following-sibling "
                           "steps internal")
            if (id(edge.parent), id(edge.child)) not in inter_pairs:
                report.add("NK001", _along("nok-edge", edge),
                           "cut edge has no matching inter-NoK edge — the "
                           "join phase would never connect the fragments")
        elif edge.axis not in _LOCAL_AXES:
            report.add("NK001", _along("nok-edge", edge),
                       f"global-axis edge ({edge.axis!r}) was kept inside "
                       "a NoK fragment — fragments must be "
                       "navigation-free (only / and following-sibling)")
    for inter in dec.inter_edges:
        if inter.axis in _LOCAL_AXES:
            report.add("NK001", _along("inter", inter),
                       f"inter-NoK edge carries local axis {inter.axis!r}")


def _check_partition(tree: BlossomTree, dec: Decomposition,
                     report: AnalysisReport) -> None:
    owner: dict[int, int] = {}
    for nok in dec.noks:
        if nok.root not in nok.vertices:
            report.add("NK002", f"nok:{nok.nok_id}",
                       f"NoK root V{nok.root.vid} is not among its own "
                       "members")
        for vertex in nok.vertices:
            if id(vertex) in owner:
                report.add("NK002", f"nok:{nok.nok_id}",
                           f"vertex V{vertex.vid} belongs to NoK "
                           f"{owner[id(vertex)]} and NoK {nok.nok_id}")
            owner[id(vertex)] = nok.nok_id
        _check_nok_connected(nok, report)
    nok_of_vertex = dec.nok_of_vertex
    for vertex in tree.vertices:
        recorded = nok_of_vertex.get(vertex.vid)
        actual = owner.get(id(vertex))
        if actual is None:
            report.add("NK002", _at(vertex),
                       f"vertex V{vertex.vid} belongs to no NoK fragment")
        elif recorded != actual:
            report.add("NK002", _at(vertex),
                       f"vertex V{vertex.vid} is recorded in NoK {recorded} "
                       f"but listed as a member of NoK {actual}")


def _check_nok_connected(nok: NoKTree, report: AnalysisReport) -> None:
    """Every member reachable from the NoK root via uncut edges."""
    reached = {id(nok.root)}
    stack = [nok.root]
    while stack:
        for edge in stack.pop().child_edges:
            if not edge.cut and id(edge.child) not in reached:
                reached.add(id(edge.child))
                stack.append(edge.child)
    for vertex in nok.vertices:
        if id(vertex) not in reached:
            report.add("NK002", f"nok:{nok.nok_id}",
                       f"member V{vertex.vid} is not reachable from the "
                       f"NoK root V{nok.root.vid} via uncut edges")


def _check_inter_forest(dec: Decomposition, report: AnalysisReport) -> None:
    noks, nok_of_vertex = dec.noks, dec.nok_of_vertex
    target_counts: dict[int, int] = {}
    for inter in dec.inter_edges:
        nok_to = inter.nok_to
        recorded_from = nok_of_vertex.get(inter.parent.vid)
        recorded_to = nok_of_vertex.get(inter.child.vid)
        if recorded_from != inter.nok_from:
            report.add("NK003", _along("inter", inter),
                       f"edge claims source NoK {inter.nok_from} but the "
                       f"parent vertex lives in NoK {recorded_from}")
        if recorded_to != nok_to:
            report.add("NK003", _along("inter", inter),
                       f"edge claims target NoK {nok_to} but the child "
                       f"vertex lives in NoK {recorded_to}")
        if not (0 <= nok_to < len(noks)) \
                or noks[nok_to].root is not inter.child:
            report.add("NK003", _along("inter", inter),
                       f"child V{inter.child.vid} is not the root of its "
                       f"NoK {nok_to}")
        target_counts[nok_to] = target_counts.get(nok_to, 0) + 1
    for nok_id, count in target_counts.items():
        if count > 1:
            report.add("NK003", f"nok:{nok_id}",
                       f"NoK {nok_id} is the target of {count} inter edges "
                       "(must be a forest)")
    # Every non-root NoK reachable from a root NoK (detects cycles too).
    reachable = {nok.nok_id for nok in dec.root_noks()}
    changed = True
    while changed:
        changed = False
        for inter in dec.inter_edges:
            if inter.nok_from in reachable and inter.nok_to not in reachable:
                reachable.add(inter.nok_to)
                changed = True
    for nok in noks:
        if nok.nok_id not in reachable:
            report.add("NK003", f"nok:{nok.nok_id}",
                       f"NoK {nok.nok_id} (root V{nok.root.vid}) is not "
                       "reachable from any pattern-root NoK")


# ----------------------------------------------------------------------
# Physical-plan stage.
# ----------------------------------------------------------------------

def plan_pass(dec: Decomposition, report: AnalysisReport,
              strategy: str | None = None,
              recursive_document: bool | None = None) -> None:
    """PL001-PL003: operator applicability over the compiled artifacts.

    ``strategy`` / ``recursive_document`` are optional because the CLI
    analyzes artifacts without an engine; strategy checks are skipped
    when they are unknown.
    """
    report.passes_run.append("plan")
    for inter in dec.inter_edges:
        if not inter.parent.returning:
            report.add("PL001", _along("inter", inter),
                       f"join parent V{inter.parent.vid} is not returning — "
                       "its matches are not kept, so the join's left "
                       "projection finds none")
    if strategy is not None:
        _check_strategy(dec.tree, report, strategy, recursive_document)


def _check_strategy(tree: BlossomTree, report: AnalysisReport, strategy: str,
                    recursive_document: bool | None) -> None:
    """PL002 / PL003 against the strategy's row."""
    from repro.physical.twigstack import twig_supported

    row = STRATEGIES.get(strategy)
    if row is None or not row.executable:
        report.add("PL002", "plan", f"unknown strategy {strategy!r}")
        return
    if "twig" in row.requires and not twig_supported(tree):
        report.add("PL002", "plan",
                   f"{strategy} strategy chosen for a pattern that is not a "
                   "single //-twig")
    if row.theorem2 and recursive_document:
        report.add("PL003", "plan",
                   f"{strategy} merge join on a recursive document: "
                   "Theorem 2's non-containment precondition may fail "
                   "(Example 5) — ordered output is not guaranteed")
