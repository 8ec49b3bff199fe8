"""The analyzer's verification passes, one per compilation stage.

Each pass inspects one artifact of the compile pipeline — the FLWOR
AST, the BlossomTree, the NoK decomposition, the Dewey assignment, the
physical-plan choice — and appends :class:`~repro.analysis.report.Finding`
objects to a shared report.  Passes never mutate what they check and
never raise for an invariant violation (that is the caller's policy);
they are total functions over arbitrarily corrupted inputs, which is
what lets the corruption-fixture tests drive them directly.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import TYPE_CHECKING

from repro.analysis.report import AnalysisReport
from repro.pattern.blossom import (
    MODE_MANDATORY,
    MODE_OPTIONAL,
    BlossomTree,
    BlossomVertex,
)
from repro.pattern.decompose import Decomposition
from repro.pattern.dewey import DeweyAssignment
from repro.xquery.ast import FLWOR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> analysis)
    from repro.engine.prepared import CachedPlan

__all__ = [
    "ast_pass",
    "blossom_pass",
    "decomposition_pass",
    "dewey_pass",
    "plan_pass",
    "partition_unsafe_noks",
    "snapshot_pass",
    "tree_quick_clean",
    "artifacts_quick_clean",
]

#: Axes the pattern matcher models at all.
_LEGAL_AXES = ("child", "descendant", "following-sibling", "attribute", "self")
#: Axes that stay inside a NoK fragment (TreeEdge.is_local).
_LOCAL_AXES = ("child", "self", "attribute", "following-sibling")
#: Crossing-edge relations the finish phase can re-verify.
_LEGAL_RELATIONS = ("<<", ">>", "is", "isnot", "=", "!=", "<", "<=", ">",
                    ">=", "deep-equal")
#: Strategies the engine can execute.
_KNOWN_STRATEGIES = ("pipelined", "caching", "stack", "bnlj", "nl",
                     "twigstack", "naive", "xhive", "parallel")
_PATTERN_STRATEGIES = ("pipelined", "caching", "stack", "bnlj", "nl",
                       "twigstack", "parallel")


# ----------------------------------------------------------------------
# AST stage.
# ----------------------------------------------------------------------

def ast_pass(flwor: FLWOR, report: AnalysisReport,
             external: frozenset[str] = frozenset()) -> None:
    """AST001/AST002: variable scoping of the FLWOR core."""
    from repro.xquery.semantics import analyze

    report.passes_run.append("ast")
    static = analyze(flwor, external=external)
    for error in static.errors:
        if error.startswith("reference to unbound variable"):
            report.add("AST001", "ast", error)
        elif "bound twice" in error:
            report.add("AST002", "ast", error)
        else:
            report.add("AST001", "ast", error)


# ----------------------------------------------------------------------
# BlossomTree stage.
# ----------------------------------------------------------------------

def blossom_pass(tree: BlossomTree, report: AnalysisReport) -> None:
    """BT001-BT006: Definition-1 well-formedness of the BlossomTree."""
    report.passes_run.append("blossom")
    # Identity sets shared by all sub-checks.  Identity, not equality:
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
            report.add("BT003", f"blossom:V{vertex.vid}",
                       f"vertex id {vertex.vid} does not match its position "
                       f"{index} in the vertex list (ids must be dense)")
    for root in tree.roots:
        if id(root) not in by_id:
            report.add("BT003", f"blossom:V{root.vid}",
                       "pattern root is not a vertex of this tree")
        if root.parent_edge is not None:
            report.add("BT003", f"blossom:V{root.vid}",
                       "pattern root has a parent edge")
    edge_ids = {id(e) for e in tree.tree_edges}
    for edge in tree.tree_edges:
        if id(edge.parent) not in by_id or id(edge.child) not in by_id:
            report.add("BT003",
                       f"blossom:V{edge.parent.vid}->V{edge.child.vid}",
                       "tree edge endpoint is not a vertex of this tree")
            continue
        if edge.child.parent_edge is not edge:
            report.add("BT003",
                       f"blossom:V{edge.parent.vid}->V{edge.child.vid}",
                       f"child V{edge.child.vid} does not point back at this "
                       "edge as its parent edge")
        if not any(e is edge for e in edge.parent.child_edges):
            report.add("BT003",
                       f"blossom:V{edge.parent.vid}->V{edge.child.vid}",
                       f"parent V{edge.parent.vid} does not list this edge "
                       "among its child edges")
    for vertex in vertices:
        for edge in vertex.child_edges:
            if edge.parent is not vertex:
                report.add("BT003", f"blossom:V{vertex.vid}",
                           f"child edge to V{edge.child.vid} does not name "
                           f"V{vertex.vid} as its parent")
        if vertex.parent_edge is not None \
                and id(vertex.parent_edge) not in edge_ids:
            report.add("BT003", f"blossom:V{vertex.vid}",
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
            if id(vertex) in on_path:
                report.add("BT003", f"blossom:V{vertex.vid}",
                           "cycle detected in tree edges")
                return
            on_path.add(id(vertex))
            seen[id(vertex)] = seen.get(id(vertex), 0) + 1
            stack.extend(e.child for e in vertex.child_edges)
    for vertex in vertices:
        count = seen.get(id(vertex), 0)
        if count == 0:
            report.add("BT003", f"blossom:V{vertex.vid}",
                       f"vertex {vertex.name!r} is unreachable from every "
                       "pattern root (orphan)")
        elif count > 1:
            report.add("BT003", f"blossom:V{vertex.vid}",
                       f"vertex {vertex.name!r} is reachable {count} times "
                       "(shared subtree or duplicate root)")


def _check_bindings(tree: BlossomTree, by_id: set[int],
                    report: AnalysisReport) -> None:
    for name, vertex in tree.var_vertex.items():
        loc = f"blossom:${name}"
        if id(vertex) not in by_id:
            report.add("BT001", loc,
                       f"variable ${name} is bound to a vertex that is not "
                       "part of this tree")
            continue
        if name not in vertex.variables:
            report.add("BT001", loc,
                       f"variable ${name} maps to V{vertex.vid}, but the "
                       "vertex does not list it")
        kind = vertex.var_kinds.get(name)
        if kind not in ("for", "let"):
            report.add("BT001", loc,
                       f"variable ${name} on V{vertex.vid} has kind "
                       f"{kind!r}, expected 'for' or 'let'")
    for vertex in tree.vertices:
        for name in vertex.variables:
            if tree.var_vertex.get(name) is not vertex:
                report.add("BT001", f"blossom:V{vertex.vid}",
                           f"vertex lists variable ${name}, but the tree "
                           "maps that variable elsewhere (bound twice?)")
        if vertex.is_blossom and not vertex.returning:
            report.add("BT001", f"blossom:V{vertex.vid}",
                       f"blossom V{vertex.vid} (${','.join(vertex.variables)}) "
                       "is not marked returning")


def _check_edge_modes(tree: BlossomTree, report: AnalysisReport) -> None:
    for edge in tree.tree_edges:
        loc = f"blossom:V{edge.parent.vid}->V{edge.child.vid}"
        if edge.mode not in (MODE_MANDATORY, MODE_OPTIONAL):
            report.add("BT002", loc,
                       f"illegal matching mode {edge.mode!r} (must be "
                       f"{MODE_MANDATORY!r} or {MODE_OPTIONAL!r})")
        if edge.axis not in _LEGAL_AXES:
            report.add("BT002", loc,
                       f"axis {edge.axis!r} is outside the pattern-matching "
                       "subset")
    for vertex in tree.vertices:
        after = vertex.after_vid
        if after is None:
            continue
        loc = f"blossom:V{vertex.vid}"
        sibling = tree.vertices[after] if 0 <= after < len(tree.vertices) \
            else None
        if sibling is None:
            report.add("BT002", loc,
                       f"following-sibling anchor references unknown vertex "
                       f"id {after}")
        elif sibling.parent_edge is None or vertex.parent_edge is None \
                or sibling.parent_edge.parent is not vertex.parent_edge.parent:
            report.add("BT002", loc,
                       f"following-sibling anchor V{after} is not a sibling "
                       f"of V{vertex.vid} (different parents)")


def _check_crossings(tree: BlossomTree, by_id: set[int],
                     report: AnalysisReport) -> None:
    for edge in tree.crossing_edges:
        loc = f"crossing:V{edge.u.vid}~V{edge.v.vid}"
        if edge.relation not in _LEGAL_RELATIONS:
            report.add("BT004", loc,
                       f"illegal crossing relation {edge.relation!r}")
        for endpoint in (edge.u, edge.v):
            if id(endpoint) not in by_id:
                report.add("BT004", loc,
                           f"crossing endpoint V{endpoint.vid} is not a "
                           "vertex of this tree")
            elif not endpoint.returning:
                report.add("BT004", loc,
                           f"crossing endpoint V{endpoint.vid} is not "
                           "returning — the join cannot project it")


def _check_returning_closure(tree: BlossomTree, report: AnalysisReport) -> None:
    for edge in tree.tree_edges:
        if edge.child.returning and not edge.parent.returning:
            report.add("BT005",
                       f"blossom:V{edge.parent.vid}->V{edge.child.vid}",
                       f"V{edge.child.vid} is returning but its parent "
                       f"V{edge.parent.vid} is not — projection cannot "
                       "navigate to it")


def _check_inert_optionals(tree: BlossomTree, report: AnalysisReport) -> None:
    for vertex in tree.vertices:
        edge = vertex.parent_edge
        if (edge is not None and edge.mode == MODE_OPTIONAL
                and not vertex.child_edges and not vertex.returning
                and not vertex.variables and not vertex.value_predicates):
            report.add("BT006", f"blossom:V{vertex.vid}",
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
        loc = f"nok-edge:V{edge.parent.vid}->V{edge.child.vid}"
        if edge.cut:
            if edge.axis in _LOCAL_AXES:
                report.add("NK001", loc,
                           f"local-axis edge ({edge.axis!r}) was cut — NoK "
                           "fragments must keep / and following-sibling "
                           "steps internal")
            if (id(edge.parent), id(edge.child)) not in inter_pairs:
                report.add("NK001", loc,
                           "cut edge has no matching inter-NoK edge — the "
                           "join phase would never connect the fragments")
        else:
            if edge.axis not in _LOCAL_AXES:
                report.add("NK001", loc,
                           f"global-axis edge ({edge.axis!r}) was kept inside "
                           "a NoK fragment — fragments must be "
                           "navigation-free (only / and following-sibling)")
    for inter in dec.inter_edges:
        loc = f"inter:V{inter.parent.vid}->V{inter.child.vid}"
        if inter.axis in _LOCAL_AXES:
            report.add("NK001", loc,
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
        # Reachability from the NoK root via uncut edges.
        reached = {id(nok.root)}
        stack = [nok.root]
        while stack:
            vertex = stack.pop()
            for edge in vertex.child_edges:
                if not edge.cut and id(edge.child) not in reached:
                    reached.add(id(edge.child))
                    stack.append(edge.child)
        for vertex in nok.vertices:
            if id(vertex) not in reached:
                report.add("NK002", f"nok:{nok.nok_id}",
                           f"member V{vertex.vid} is not reachable from the "
                           f"NoK root V{nok.root.vid} via uncut edges")
    for vertex in tree.vertices:
        recorded = dec.nok_of_vertex.get(vertex.vid)
        actual = owner.get(id(vertex))
        if actual is None:
            report.add("NK002", f"blossom:V{vertex.vid}",
                       f"vertex V{vertex.vid} belongs to no NoK fragment")
        elif recorded != actual:
            report.add("NK002", f"blossom:V{vertex.vid}",
                       f"vertex V{vertex.vid} is recorded in NoK {recorded} "
                       f"but listed as a member of NoK {actual}")


def _check_inter_forest(dec: Decomposition, report: AnalysisReport) -> None:
    target_counts: dict[int, int] = {}
    for inter in dec.inter_edges:
        loc = f"inter:V{inter.parent.vid}->V{inter.child.vid}"
        recorded_from = dec.nok_of_vertex.get(inter.parent.vid)
        recorded_to = dec.nok_of_vertex.get(inter.child.vid)
        if recorded_from != inter.nok_from:
            report.add("NK003", loc,
                       f"edge claims source NoK {inter.nok_from} but the "
                       f"parent vertex lives in NoK {recorded_from}")
        if recorded_to != inter.nok_to:
            report.add("NK003", loc,
                       f"edge claims target NoK {inter.nok_to} but the child "
                       f"vertex lives in NoK {recorded_to}")
        if not (0 <= inter.nok_to < len(dec.noks)) \
                or dec.noks[inter.nok_to].root is not inter.child:
            report.add("NK003", loc,
                       f"child V{inter.child.vid} is not the root of its "
                       f"NoK {inter.nok_to}")
        target_counts[inter.nok_to] = target_counts.get(inter.nok_to, 0) + 1
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
    for nok in dec.noks:
        if nok.nok_id not in reachable:
            report.add("NK003", f"nok:{nok.nok_id}",
                       f"NoK {nok.nok_id} (root V{nok.root.vid}) is not "
                       "reachable from any pattern-root NoK")


# ----------------------------------------------------------------------
# Dewey stage.
# ----------------------------------------------------------------------

def dewey_pass(tree: BlossomTree, dewey: DeweyAssignment,
               report: AnalysisReport) -> None:
    """DW001/DW002: Theorem 1/2 preconditions on the global assignment."""
    report.passes_run.append("dewey")
    _check_dewey_staleness(tree, dewey, report)
    _check_dewey_order(tree, dewey, report)


def _check_dewey_staleness(tree: BlossomTree, dewey: DeweyAssignment,
                           report: AnalysisReport) -> None:
    live = {v.vid: v for v in tree.vertices}
    for vid, ident in dewey.of_vertex.items():
        vertex = live.get(vid)
        loc = f"dewey:{'.'.join(str(part) for part in ident)}"
        if vertex is None:
            report.add("DW002", loc,
                       f"Dewey ID assigned to vertex id {vid}, which does "
                       "not exist in this tree (stale assignment)")
            continue
        if dewey.vertex_of.get(ident) is not vertex:
            report.add("DW002", loc,
                       f"vertex->Dewey and Dewey->vertex maps disagree for "
                       f"V{vid}")
        if not vertex.returning and vertex not in tree.roots:
            report.add("DW002", loc,
                       f"Dewey ID assigned to non-returning vertex V{vid}")
    for ident, vertex in dewey.vertex_of.items():
        if live.get(vertex.vid) is not vertex:
            report.add("DW002", f"dewey:{dewey.format(ident)}",
                       f"Dewey->vertex map references a vertex (V{vertex.vid}) "
                       "that is not part of this tree")
        elif dewey.of_vertex.get(vertex.vid) != ident:
            report.add("DW002", f"dewey:{dewey.format(ident)}",
                       f"Dewey->vertex map gives V{vertex.vid} ID "
                       f"{dewey.format(ident)}, but the vertex->Dewey map "
                       "disagrees")


def _closest_returning_ancestor(vertex: BlossomVertex) -> BlossomVertex | None:
    node = vertex
    while node.parent_edge is not None:
        node = node.parent_edge.parent
        if node.returning:
            return node
    return None


def _check_dewey_order(tree: BlossomTree, dewey: DeweyAssignment,
                       report: AnalysisReport) -> None:
    ids = list(dewey.of_vertex.values())
    if len(set(ids)) != len(ids):
        report.add("DW001", "dewey",
                   "Dewey IDs are not unique across the returning tree")
    for ordinal, root in enumerate(tree.roots, start=1):
        assigned = dewey.of_vertex.get(root.vid)
        if assigned != (1, ordinal):
            report.add("DW001", f"blossom:V{root.vid}",
                       f"pattern root #{ordinal} must carry Dewey ID "
                       f"1.{ordinal}, found "
                       f"{dewey.format(assigned) if assigned else 'none'}")
    for vertex in tree.vertices:
        if not vertex.returning:
            continue
        assigned = dewey.of_vertex.get(vertex.vid)
        loc = f"blossom:V{vertex.vid}"
        if assigned is None:
            report.add("DW001", loc,
                       f"returning vertex V{vertex.vid} ({vertex.name!r}) "
                       "has no Dewey ID — the assignment is not global")
            continue
        if len(assigned) < 2 or any(part < 1 for part in assigned):
            report.add("DW001", loc,
                       f"malformed Dewey ID {dewey.format(assigned)}")
            continue
        ancestor = _closest_returning_ancestor(vertex)
        if ancestor is None:
            continue  # pattern roots handled above
        parent_id = dewey.of_vertex.get(ancestor.vid)
        if parent_id is None:
            continue  # already reported as missing on the ancestor
        if assigned[:-1] != parent_id:
            report.add("DW001", loc,
                       f"Dewey ID {dewey.format(assigned)} does not extend "
                       f"its closest returning ancestor V{ancestor.vid} "
                       f"({dewey.format(parent_id)}) by one component")
        recorded = dewey.returning_parent.get(vertex.vid)
        if recorded != ancestor.vid:
            report.add("DW001", loc,
                       f"returning-parent map records V{recorded}, but the "
                       f"closest returning ancestor is V{ancestor.vid}")
    # Sibling ordinals dense 1..k under every prefix.
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for ident in dewey.of_vertex.values():
        if len(ident) >= 2:
            by_prefix.setdefault(ident[:-1], []).append(ident[-1])
    for prefix, ordinals in by_prefix.items():
        if sorted(ordinals) != list(range(1, len(ordinals) + 1)):
            report.add("DW001", f"dewey:{dewey.format(prefix)}",
                       f"sibling ordinals under {dewey.format(prefix)} are "
                       f"{sorted(ordinals)}, expected dense 1..k")


# ----------------------------------------------------------------------
# Physical-plan stage.
# ----------------------------------------------------------------------

def partition_unsafe_noks(dec: Decomposition) -> list:
    """The NoKs partition-parallel scan execution cannot cover.

    Every absolute path anchors at a synthetic ``#root`` vertex.  When
    that vertex's NoK is *trivial* (the single anchor vertex, no value
    predicates) the coordinator matches it once against the document
    node and the remaining NoKs scan in partitions — safe.  But a
    ``#root`` NoK with more vertices (an all-local-axis chain like
    ``/bib/book``, kept whole by Algorithm 1) or with predicates is
    matched *navigationally* from the document node, never by the
    sequential scan the partitioner cuts up — partitioning it would
    re-run the navigation once per partition and multiply its matches.
    """
    return [nok for nok in dec.noks
            if nok.root.name == "#root"
            and (len(nok.vertices) > 1 or nok.root.value_predicates)]


def plan_pass(tree: BlossomTree, dec: Decomposition, dewey: DeweyAssignment,
              report: AnalysisReport, strategy: str | None = None,
              recursive_document: bool | None = None) -> None:
    """PL001-PL004: operator applicability over the compiled artifacts.

    ``strategy`` / ``recursive_document`` are optional because the CLI
    analyzes artifacts without an engine; strategy checks are skipped
    when they are unknown.
    """
    report.passes_run.append("plan")
    for inter in dec.inter_edges:
        loc = f"inter:V{inter.parent.vid}->V{inter.child.vid}"
        parent_id = dewey.of_vertex.get(inter.parent.vid)
        if parent_id is None:
            report.add("PL001", loc,
                       f"join parent V{inter.parent.vid} has no Dewey ID — "
                       "operands disagree on the returning-node schema")
            continue
        if inter.child.returning:
            child_id = dewey.of_vertex.get(inter.child.vid)
            if child_id is None:
                report.add("PL001", loc,
                           f"returning join child V{inter.child.vid} has no "
                           "Dewey ID")
            elif child_id[:-1] != parent_id:
                report.add("PL001", loc,
                           f"join child Dewey ID "
                           f"{dewey.format(child_id)} does not extend the "
                           f"parent's ({dewey.format(parent_id)}) — the "
                           "merge cannot nest their NestedLists")
    if strategy is not None:
        _check_strategy(tree, report, strategy, recursive_document)
        if strategy == "parallel":
            for nok in partition_unsafe_noks(dec):
                report.add("PL004", f"nok:{nok.nok_id}",
                           f"parallel strategy chosen, but NoK {nok.nok_id} "
                           "anchors at #root with local navigation — it is "
                           "matched from the document node, not by the "
                           "sequential scan the partitioner cuts, so "
                           "partition-parallel execution cannot cover it")


def _check_strategy(tree: BlossomTree, report: AnalysisReport, strategy: str,
                    recursive_document: bool | None) -> None:
    from repro.physical.twigstack import twig_supported

    if strategy not in _KNOWN_STRATEGIES:
        report.add("PL002", "plan", f"unknown strategy {strategy!r}")
        return
    if strategy == "twigstack" and not twig_supported(tree):
        report.add("PL002", "plan",
                   "twigstack strategy chosen for a pattern that is not a "
                   "single //-twig")
    if strategy in ("pipelined", "caching") and recursive_document:
        report.add("PL003", "plan",
                   f"{strategy} merge join on a recursive document: "
                   "Theorem 2's non-containment precondition may fail "
                   "(Example 5) — ordered output is not guaranteed")


# ----------------------------------------------------------------------
# Serving stage.
# ----------------------------------------------------------------------

def snapshot_pass(plan: CachedPlan, live_snapshots: Collection[int],
                  report: AnalysisReport) -> None:
    """SV001: the plan's stamped snapshot must still be live.

    ``live_snapshots`` is the serving catalog's ground truth — the ids
    of the document's current and pinned versions.  Plans compiled
    outside the serving layer (``snapshot_id is None``) always pass.
    """
    report.passes_run.append("serve")
    snapshot_id = plan.snapshot_id
    if snapshot_id is None:
        return
    if snapshot_id not in live_snapshots:
        live = ", ".join(str(i) for i in sorted(live_snapshots)) or "-"
        report.add("SV001", "serve",
                   f"plan was compiled against snapshot {snapshot_id}, "
                   f"which has been dropped (live snapshots: {live})")


# ----------------------------------------------------------------------
# Fused fast-path predicates (the verify gates' hot path).
# ----------------------------------------------------------------------
#
# The reporting passes above favour precise findings over speed: they
# build location strings eagerly and re-derive index sets per check.
# The engine verifies every plan it compiles, so the *clean* case must
# cost microseconds.  These predicates fuse the same invariants into
# single traversals and answer only clean/dirty; the verify gates run
# the full passes exactly when a predicate says dirty (or a warning
# rule could fire), so findings and rule IDs never change.
#
# Keep them in lockstep with the passes: every check added to a pass
# needs its twin here, and a corruption fixture in
# tests/test_analysis_rules.py driving the verify gate (which exercises
# this fast path).  tests/conftest.py cross-checks predicate-vs-pass
# agreement on every plan the suite compiles.

def tree_quick_clean(tree: BlossomTree) -> bool:
    """True iff :func:`blossom_pass` would report nothing (BT001-BT006).

    The predicate is vid-centric: after the dense-vid check up front,
    "vertex belongs to this tree" is ``vertices[v.vid] is v`` (one list
    index + identity test) instead of an id()-set membership, and the
    reachability marks live in a bytearray indexed by vid.  Two checks
    have no explicit twin because cheaper ones subsume them:

    * "edge listed by its parent" — an unlisted edge leaves its child
      unreachable, so the reachability count at the bottom goes dirty;
    * "vertex.parent_edge is a known edge" — every tree edge's child
      points back at it, so tree_edges maps injectively into the
      parented vertices, and ``n_parented == len(tree_edges)`` forces
      the two sets to coincide.
    """
    vertices = tree.vertices
    n = len(vertices)
    for index, vertex in enumerate(vertices):
        if vertex.vid != index:
            return False
    for root in tree.roots:
        vid = root.vid
        if not 0 <= vid < n or vertices[vid] is not root \
                or root.parent_edge is not None:
            return False
    for edge in tree.tree_edges:
        parent = edge.parent
        child = edge.child
        pvid = parent.vid
        cvid = child.vid
        if not 0 <= pvid < n or vertices[pvid] is not parent:
            return False
        if not 0 <= cvid < n or vertices[cvid] is not child:
            return False
        if child.parent_edge is not edge:
            return False
        mode = edge.mode
        if mode != MODE_MANDATORY and mode != MODE_OPTIONAL:
            return False
        if edge.axis not in _LEGAL_AXES:
            return False
        if child.returning and not parent.returning:
            return False
    n_parented = 0
    var_vertex_get = tree.var_vertex.get
    for vertex in vertices:
        for edge in vertex.child_edges:
            if edge.parent is not vertex or edge.child.parent_edge is not edge:
                return False
        parent_edge = vertex.parent_edge
        if parent_edge is not None:
            n_parented += 1
        after = vertex.after_vid
        if after is not None:
            if not 0 <= after < n:
                return False
            sibling = vertices[after]
            if sibling.parent_edge is None or parent_edge is None \
                    or sibling.parent_edge.parent is not parent_edge.parent:
                return False
        if vertex.variables:
            if not vertex.returning:
                return False
            for name in vertex.variables:
                if var_vertex_get(name) is not vertex:
                    return False
        elif parent_edge is not None \
                and parent_edge.mode == MODE_OPTIONAL \
                and not vertex.child_edges and not vertex.returning \
                and not vertex.value_predicates:
            return False
    if n_parented != len(tree.tree_edges):
        return False
    for name, vertex in tree.var_vertex.items():
        vid = vertex.vid
        if not 0 <= vid < n or vertices[vid] is not vertex \
                or name not in vertex.variables:
            return False
        kind = vertex.var_kinds.get(name)
        if kind != "for" and kind != "let":
            return False
    for crossing in tree.crossing_edges:
        if crossing.relation not in _LEGAL_RELATIONS:
            return False
        u = crossing.u
        v = crossing.v
        if not 0 <= u.vid < n or vertices[u.vid] is not u:
            return False
        if not 0 <= v.vid < n or vertices[v.vid] is not v:
            return False
        if not u.returning or not v.returning:
            return False
    # Reachability: every vertex exactly once across all roots (covers
    # cycles, shared subtrees, duplicate roots and orphans at once).
    # The identity test inside the loop keeps alien child vertices from
    # aliasing a real vid.
    visited = bytearray(n)
    reached = 0
    for root in tree.roots:
        stack = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            vertex = pop()
            vid = vertex.vid
            if not 0 <= vid < n or vertices[vid] is not vertex \
                    or visited[vid]:
                return False
            visited[vid] = 1
            reached += 1
            for edge in vertex.child_edges:
                push(edge.child)
    return reached == n


def artifacts_quick_clean(artifacts: object, strategy: str | None = None,
                          recursive_document: bool | None = None) -> bool:
    """True iff the decomposition, Dewey and plan passes would all
    report nothing (NK001-NK003, DW001-DW002, PL001/PL002/PL004) *and*
    no warning rule (PL003) could fire."""
    tree = artifacts.tree          # type: ignore[attr-defined]
    dec = artifacts.decomposition  # type: ignore[attr-defined]
    dewey = artifacts.dewey        # type: ignore[attr-defined]
    vertices = tree.vertices
    n = len(vertices)
    nok_of_vertex = dec.nok_of_vertex
    nok_of_vertex_get = nok_of_vertex.get
    # NK001 + the NK002 *parent rule*, fused over one edge sweep:
    # exactly the non-local edges are cut; every cut edge has a
    # matching inter edge; every uncut edge stays inside one NoK.  The
    # full pass checks NK002 as per-NoK root-reachability via a DFS —
    # on an acyclic tree (the gates conjoin this predicate with
    # tree_quick_clean / tree_verified) the parent rule is equivalent
    # by ascending-chain induction, and strictly conservative
    # otherwise, so a disagreement can only send us to the full
    # passes, never skip them.
    inter_pairs = {(e.parent.vid, e.child.vid) for e in dec.inter_edges}
    for edge in tree.tree_edges:
        if edge.cut:
            if edge.axis in _LOCAL_AXES:
                return False
            if (edge.parent.vid, edge.child.vid) not in inter_pairs:
                return False
        else:
            if edge.axis not in _LOCAL_AXES:
                return False
            nok_id = nok_of_vertex_get(edge.parent.vid)
            if nok_id is None or nok_of_vertex_get(edge.child.vid) != nok_id:
                return False
    # NK002: member lists and the recorded vertex->NoK map describe the
    # same partition.  Identity tests against the vid slot keep stale
    # vertex objects (same vid, different object) from aliasing live
    # ones — the vid-keyed maps alone could not tell them apart.
    total_members = 0
    for nok in dec.noks:
        nok_id = nok.nok_id
        root = nok.root
        root_seen = False
        for vertex in nok.vertices:
            total_members += 1
            vid = vertex.vid
            if not 0 <= vid < n or vertices[vid] is not vertex:
                return False
            if nok_of_vertex_get(vid) != nok_id:
                return False
            if vertex is root:
                root_seen = True
        if not root_seen:
            return False
    if total_members != n or len(nok_of_vertex) != n:
        return False
    # NK003: inter edges mirror the recorded NoK ids and form a forest.
    # The full pass's reachability fixpoint is implied: every NoK root
    # is either a pattern root (so its NoK is a scan anchor) or the
    # child of a *cut* edge, whose matching inter edge (NK001) hangs it
    # under its parent's NoK; induction over the acyclic vertex forest
    # then reaches every NoK.
    targets: set[int] = set()
    noks = dec.noks
    n_noks = len(noks)
    for inter in dec.inter_edges:
        if inter.axis in _LOCAL_AXES:
            return False
        parent = inter.parent
        child = inter.child
        if not 0 <= parent.vid < n or vertices[parent.vid] is not parent:
            return False
        if not 0 <= child.vid < n or vertices[child.vid] is not child:
            return False
        if nok_of_vertex_get(parent.vid) != inter.nok_from:
            return False
        nok_to = inter.nok_to
        if nok_of_vertex_get(child.vid) != nok_to:
            return False
        if not 0 <= nok_to < n_noks or noks[nok_to].root is not child:
            return False
        if nok_to in targets:
            return False
        targets.add(nok_to)
    for nok in noks:
        parent_edge = nok.root.parent_edge
        if parent_edge is None:
            continue
        if not parent_edge.cut:
            return False
    # Pattern roots anchor their NoKs (parentless vertices are exactly
    # tree.roots on a tree that passed the conjoined tree check).
    for root in tree.roots:
        nok_id = nok_of_vertex_get(root.vid)
        if nok_id is None or not 0 <= nok_id < n_noks \
                or noks[nok_id].root is not root:
            return False
    # DW002: the two Dewey maps agree and cover exactly the live tree.
    # vid-indexing vertices is safe: the conjoined tree check verified
    # vid density.
    n = len(vertices)
    of_vertex = dewey.of_vertex
    of_vertex_get = of_vertex.get
    vertex_of_get = dewey.vertex_of.get
    root_ids = {id(r) for r in tree.roots}
    for vid, ident in of_vertex.items():
        if not 0 <= vid < n:
            return False
        vertex = vertices[vid]
        if vertex_of_get(ident) is not vertex:
            return False
        if not vertex.returning and id(vertex) not in root_ids:
            return False
    for ident, vertex in dewey.vertex_of.items():
        vid = vertex.vid
        if not 0 <= vid < n or vertices[vid] is not vertex:
            return False
        if of_vertex_get(vid) != ident:
            return False
    # DW001: unique, rooted at 1.i, parent-extending, dense ordinals.
    if len(set(of_vertex.values())) != len(of_vertex):
        return False
    for ordinal, root in enumerate(tree.roots, start=1):
        if of_vertex_get(root.vid) != (1, ordinal):
            return False
    returning_parent_get = dewey.returning_parent.get
    for vertex in vertices:
        if not vertex.returning:
            continue
        assigned = of_vertex_get(vertex.vid)
        if assigned is None or len(assigned) < 2:
            return False
        for part in assigned:
            if part < 1:
                return False
        ancestor = _closest_returning_ancestor(vertex)
        if ancestor is None:
            continue
        parent_id = of_vertex_get(ancestor.vid)
        if parent_id is None:
            continue  # caught on the ancestor's own iteration
        if assigned[:-1] != parent_id:
            return False
        if returning_parent_get(vertex.vid) != ancestor.vid:
            return False
    # Dense sibling ordinals: IDs are unique (above), so ordinals under
    # a prefix are distinct positive ints — dense 1..k iff max == count.
    counts: dict[tuple[int, ...], int] = {}
    maxes: dict[tuple[int, ...], int] = {}
    counts_get = counts.get
    maxes_get = maxes.get
    for ident in of_vertex.values():
        if len(ident) >= 2:
            last = ident[-1]
            if last < 1:
                return False
            prefix = ident[:-1]
            counts[prefix] = counts_get(prefix, 0) + 1
            if last > maxes_get(prefix, 0):
                maxes[prefix] = last
    for prefix, count in counts.items():
        if maxes[prefix] != count:
            return False
    # PL001: join endpoints agree on the Dewey schema.
    for inter in dec.inter_edges:
        parent_id = of_vertex_get(inter.parent.vid)
        if parent_id is None:
            return False
        if inter.child.returning:
            child_id = of_vertex_get(inter.child.vid)
            if child_id is None or child_id[:-1] != parent_id:
                return False
    # PL002/PL003: strategy applicability; a possible PL003 warning
    # must go through the full pass so it is reported and counted.
    if strategy is not None:
        if strategy not in _KNOWN_STRATEGIES:
            return False
        if strategy == "twigstack":
            from repro.physical.twigstack import twig_supported

            if not twig_supported(tree):
                return False
        if strategy in ("pipelined", "caching") and recursive_document:
            return False
        if strategy == "parallel" and partition_unsafe_noks(dec):
            return False
    return True
