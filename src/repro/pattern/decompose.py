"""Decompose a BlossomTree into interconnected NoK pattern trees.

This is Algorithm 1 of the paper: a depth-first traversal that keeps
local-axis edges (``/``, ``following-sibling``) inside the current NoK
pattern tree and cuts global-axis edges (``//`` etc.), making each cut
edge's child vertex the root of a new NoK tree.  The cut edges become
the *inter-NoK edges* that the structural-join operators (pipelined,
bounded nested-loop, TwigStack) later evaluate.

Value-based crossing edges never appear as tree edges (the builder puts
them in ``BlossomTree.crossing_edges``), so — as Section 2.2 notes —
edge-cutting here happens on global axes only; value joins are already
separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pattern.blossom import BlossomTree, BlossomVertex

__all__ = ["NoKTree", "InterEdge", "Decomposition", "decompose"]


@dataclass
class NoKTree:
    """One NoK pattern tree: a root vertex plus local-edge descendants.

    ``doc_uri`` is set for NoKs whose root is a pattern-tree root
    (``#root`` vertex); joined NoKs inherit their document at plan time
    from the NoK on the other end of the inter edge.
    """

    nok_id: int
    root: BlossomVertex
    vertices: list[BlossomVertex] = field(default_factory=list)
    doc_uri: str | None = None
    #: The root's lazily compiled matcher (:mod:`repro.physical.nok`):
    #: kept here, not on the vertices it closes over, so it is freed
    #: with the plan, not by the cycle collector; never pickled.
    matcher: object | None = field(default=None, repr=False, compare=False)
    #: The first NoK of the decomposition under the same pattern root —
    #: so scanned with this one, over the same document — that has the
    #: same :meth:`shape`: a merged scan matches the pair once.
    twin_of: int | None = None

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "matcher": None}

    def shape(self) -> object:
        """The NoK's structural identity: NoKs of equal shape have the
        same matches on any document, vertex for vertex.  Edges compare
        by position, a vertex's predicates as a set of ASTs (``[p][q]``
        is ``[q][p]``, ``[p][p]`` is ``[p]``; a late-bound one names its
        ``$parameter``)."""
        place = {v.vid: i for i, v in enumerate(self.vertices)}

        def of(vertex: BlossomVertex) -> object:
            return (vertex.name, frozenset(vertex.value_predicates),
                    vertex.returning, place.get(vertex.after_vid, -1)
                    if vertex.after_vid is not None else None,
                    tuple((e.axis, e.mode, None if e.cut else of(e.child))
                          for e in vertex.child_edges))
        return of(self.root)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NoK{self.nok_id} root=V{self.root.vid} |V|={len(self.vertices)}>"


@dataclass
class InterEdge:
    """A cut tree edge connecting two NoK trees.

    ``parent`` lives in NoK ``nok_from``; ``child`` is the root of NoK
    ``nok_to``.  ``axis`` is the cut edge's (global) axis and ``mode``
    its matching mode — a mandatory inter edge acts as a semi-join
    filter on the parent side when the child side carries no returning
    vertices.
    """

    parent: BlossomVertex
    child: BlossomVertex
    axis: str
    mode: str
    nok_from: int
    nok_to: int

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<InterEdge V{self.parent.vid} -{self.axis},{self.mode}-> "
                f"V{self.child.vid} (NoK{self.nok_from}->NoK{self.nok_to})>")


@dataclass
class Decomposition:
    """The result of Algorithm 1: NoK trees and the inter-NoK edges."""

    tree: BlossomTree
    noks: list[NoKTree]
    inter_edges: list[InterEdge]
    #: vertex id -> owning NoK id
    nok_of_vertex: dict[int, int] = field(default_factory=dict)

    def nok_of(self, vertex: BlossomVertex) -> NoKTree:
        return self.noks[self.nok_of_vertex[vertex.vid]]

    def root_noks(self) -> list[NoKTree]:
        """NoKs whose root is a pattern-tree root (scan anchors)."""
        return [n for n in self.noks if n.root.is_root]

    def describe(self) -> str:
        lines = []
        for nok in self.noks:
            members = ", ".join(f"V{v.vid}:{v.name}" for v in nok.vertices)
            uri = f' doc="{nok.doc_uri}"' if nok.doc_uri is not None else ""
            lines.append(f"NoK{nok.nok_id}{uri}: {members}")
        for edge in self.inter_edges:
            lines.append(f"join: NoK{edge.nok_from}.V{edge.parent.vid} "
                         f"-{edge.axis},{edge.mode}-> NoK{edge.nok_to}.V{edge.child.vid}")
        return "\n".join(lines)


def decompose(tree: BlossomTree) -> Decomposition:
    """Run Algorithm 1 over a BlossomTree.

    ``S`` is the worklist of NoK roots still to process; ``T`` the
    members of the NoK currently being assembled — mirroring the
    pseudo-code's two sets.
    """
    result = Decomposition(tree, [], [])
    pending_roots: list[BlossomVertex] = list(tree.roots)  # the set S
    seen_roots: set[int] = {v.vid for v in tree.roots}

    while pending_roots:
        root = pending_roots.pop(0)
        nok = NoKTree(len(result.noks), root, doc_uri=root.doc_uri)
        result.noks.append(nok)

        members: list[BlossomVertex] = [root]  # the set T, in DFS order
        stack = [root]
        while stack:
            vertex = stack.pop()
            local_children: list[BlossomVertex] = []
            for edge in vertex.child_edges:
                if edge.is_local:
                    edge.cut = False
                    members.append(edge.child)
                    local_children.append(edge.child)
                else:
                    edge.cut = True
                    if edge.child.vid not in seen_roots:
                        seen_roots.add(edge.child.vid)
                        pending_roots.append(edge.child)
            stack.extend(reversed(local_children))

        nok.vertices = members
        for vertex in members:
            result.nok_of_vertex[vertex.vid] = nok.nok_id

    # Inter edges can only be resolved once every vertex has a NoK id.
    for edge in tree.tree_edges:
        if edge.cut:
            result.inter_edges.append(InterEdge(
                edge.parent, edge.child, edge.axis, edge.mode,
                result.nok_of_vertex[edge.parent.vid],
                result.nok_of_vertex[edge.child.vid]))
            # The join needs to project the parent side, so its matches
            # must be kept in the NestedList even if no variable or
            # output references the vertex (it becomes "returning" in
            # the paper's wider sense: a join endpoint).
            edge.parent.returning = True

    # Keeping a vertex requires keeping the path to it: re-propagate.
    changed = True
    while changed:
        changed = False
        for edge in tree.tree_edges:
            if edge.child.returning and not edge.parent.returning:
                edge.parent.returning = True
                changed = True

    # Twins (the shapes are final only now: ``returning`` is part of
    # one).  Distinct root tags leave nothing to compare.
    if len({nok.root.name for nok in result.noks}) < len(result.noks):
        first: dict[object, int] = {}
        for nok in result.noks:
            original = first.setdefault(
                (tree.pattern_root_of(nok.root).vid, nok.shape()), nok.nok_id)
            if original != nok.nok_id:
                nok.twin_of = original
    return result
