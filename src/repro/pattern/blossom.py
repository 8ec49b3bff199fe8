"""BlossomTree: the paper's formalism (Definition 1).

A BlossomTree is an annotated directed graph of interconnected pattern
trees.  Vertices carry a tag-name test, optional value constraints and
an optional variable (a *blossom*).  Tree edges carry an axis and a
matching mode: ``"f"`` (mandatory — a valid mapping needs a non-empty
image) or ``"l"`` (optional — the image may be the empty sequence).
Crossing edges carry structural (``<<``, ``>>``), value-based (``=``,
``!=``) or mixed (``deep-equal``) relationships contributed by the
where clause.

Mode policy (a deliberate, documented refinement of the paper): the
paper annotates edges "f" for for-clauses and "l" for let-clauses and
draws where/return-contributed edges as "f".  We derive modes from
binding semantics instead — for-clause steps are "f" (an empty step
kills the tuple), while let/where/order-by/return steps are "l"
(XQuery's empty-sequence semantics mean e.g. ``not($a/t = $b/t)`` is
*satisfied* by a missing ``t``).  This keeps BlossomTree matching
exactly equivalent to the naive FLWOR semantics on all documents, not
just those where the optional nodes happen to exist.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.xpath.ast import Expr, LocationPath

__all__ = [
    "MODE_MANDATORY",
    "MODE_OPTIONAL",
    "BlossomVertex",
    "TreeEdge",
    "CrossingEdge",
    "WhereConjunct",
    "BlossomTree",
    "TreeCheckpoint",
]

MODE_MANDATORY = "f"
MODE_OPTIONAL = "l"


@dataclass
class BlossomVertex:
    """One vertex of a BlossomTree.

    Attributes
    ----------
    vid:
        Dense vertex id within the owning BlossomTree.
    name:
        Tag-name test (``"*"`` matches any element).  The special name
        ``"#root"`` marks a pattern-tree root that matches the document
        node itself.
    value_predicates:
        Local value constraints from path predicates — XPath expressions
        evaluated with a candidate element as context node (e.g.
        ``. = "Smith"`` or ``@year = "2000"``).  These stay *inside* the
        NoK pattern tree: they never force an edge cut.
    variables:
        Variable names bound to this vertex (the vertex is a *blossom*
        when non-empty).  Several variables may share a vertex when
        their defining paths coincide.
    var_kinds:
        For each variable in ``variables``: ``"for"`` (bound to a single
        node per tuple) or ``"let"`` (bound to the whole sequence).
    returning:
        Whether matches of this vertex must be kept in the NestedList
        output (blossoms, join endpoints and output vertices are
        returning; purely existential vertices are not).
    after_vid:
        For a ``following-sibling`` step: the vid of the sibling vertex
        that must match first among the same parent's children.
    doc_uri:
        On a ``#root`` vertex: the ``doc(...)`` uri the pattern tree
        reads (``""`` is the default document); ``None`` elsewhere.
    """

    vid: int
    name: str
    value_predicates: list[Expr] = field(default_factory=list)
    variables: list[str] = field(default_factory=list)
    var_kinds: dict[str, str] = field(default_factory=dict)
    returning: bool = False
    after_vid: int | None = None
    doc_uri: str | None = None

    # Filled in by BlossomTree bookkeeping:
    child_edges: list[TreeEdge] = field(default_factory=list)
    #: ``value_predicates`` compiled, lazily, by :mod:`repro.physical.nok`
    #: (closures over the expressions alone; never pickled).
    tests: tuple | None = field(default=None, repr=False, compare=False)
    #: :attr:`parent_edge`, held weakly (see :class:`TreeEdge`).
    _up: weakref.ref[TreeEdge] | None = field(default=None, repr=False,
                                              compare=False)

    def __getstate__(self) -> dict[str, object]:
        # Without ``_up``: the parent's edge restores it when unpickled.
        return {k: v for k, v in self.__dict__.items() if k != "_up"} | {"tests": None}

    @property
    def parent_edge(self) -> TreeEdge | None:
        """The tree edge from the parent; ``None`` on a pattern root."""
        up = self._up
        return None if up is None else up()

    @parent_edge.setter
    def parent_edge(self, edge: TreeEdge | None) -> None:
        self._up = None if edge is None else weakref.ref(edge)

    @property
    def is_root(self) -> bool:
        return self.parent_edge is None

    @property
    def is_blossom(self) -> bool:
        return bool(self.variables)

    def matches_tag(self, tag: str | None) -> bool:
        """Tag-name test (value predicates are checked separately)."""
        if self.name == "#root":
            return False  # roots match the document node, not elements
        return self.name == "*" or self.name == tag

    def children(self) -> list[BlossomVertex]:
        return [e.child for e in self.child_edges]

    def __repr__(self) -> str:  # pragma: no cover
        mark = f" ${','.join(self.variables)}" if self.variables else ""
        return f"<V{self.vid} {self.name}{mark}>"


class TreeEdge:
    """A tree edge ``parent --axis,mode--> child``.  Only the downward
    links are strong: ``parent`` and the child's ``parent_edge`` are weak,
    so a pattern tree is acyclic and is freed with its plan by reference
    counting, not at the cycle collector's next full pass."""

    __slots__ = ("_parent", "child", "axis", "mode", "cut", "__weakref__")

    def __init__(self, parent: BlossomVertex, child: BlossomVertex,
                 axis: str, mode: str, cut: bool = False) -> None:
        self._parent = weakref.ref(parent)
        self.child = child
        self.axis = axis   # "child", "descendant", "following-sibling", ...
        self.mode = mode   # MODE_MANDATORY or MODE_OPTIONAL
        #: Set by NoK decomposition (Algorithm 1): the edge was cut, its
        #: endpoints live in different NoK trees and a join evaluates it.
        self.cut = cut

    @property
    def parent(self) -> BlossomVertex:
        parent = self._parent()
        assert parent is not None, "pattern vertex outlived its parent"
        return parent

    def __getstate__(self) -> tuple[BlossomVertex, BlossomVertex, str, str, bool]:
        return self.parent, self.child, self.axis, self.mode, self.cut

    def __setstate__(self, state: tuple[BlossomVertex, BlossomVertex, str, str, bool]) -> None:
        parent, self.child, self.axis, self.mode, self.cut = state
        self._parent = weakref.ref(parent)
        self.child.parent_edge = self

    @property
    def is_local(self) -> bool:
        """Local edges stay inside a NoK pattern tree (Section 2.1)."""
        return self.axis in ("child", "self", "attribute", "following-sibling")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<E {self.parent.vid}-{self.axis},{self.mode}->{self.child.vid}>"


@dataclass
class CrossingEdge:
    """A crossing edge from a where-clause relationship.

    ``relation`` is one of ``<<``, ``>>``, ``is``, ``isnot`` (structural),
    ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=`` (value-based, existential
    over the two projected sequences) or ``deep-equal`` (mixed).
    ``negated`` wraps the relation in ``not(...)``.

    Crossing edges are *pruning* devices: the executor re-verifies
    their where-conjuncts per tuple, so a crossing edge may be
    conservative (keep when unsure) without affecting correctness.
    """

    u: BlossomVertex
    v: BlossomVertex
    relation: str
    negated: bool = False

    @property
    def kind(self) -> str:
        if self.relation in ("<<", ">>", "is", "isnot"):
            return "structural"
        if self.relation == "deep-equal":
            return "mixed"
        return "value"

    def __repr__(self) -> str:  # pragma: no cover
        op = f"not {self.relation}" if self.negated else self.relation
        return f"<X {self.u.vid} {op} {self.v.vid}>"


@dataclass(frozen=True)
class WhereConjunct:
    """One top-level where-conjunct and what the builder did with it
    (the dispositions are defined in :mod:`repro.pattern.build`)."""

    expr: Expr
    disposition: str   # "crossing" | "pushed-exact" | "pushed" | "residual"
    #: The crossing edge, or the vertex that took the pushed ``predicate``.
    target: CrossingEdge | BlossomVertex | None = None
    predicate: Expr | None = None
    reason: str = ""   # pushed: why it is verified per tuple all the same

    def __str__(self) -> str:
        target = self.target
        if isinstance(target, CrossingEdge):
            op = (f"not({target.relation})" if target.negated
                  else target.relation)
            return f"crossing V{target.u.vid} {op} V{target.v.vid}"
        if target is None:
            return self.disposition
        why = f" ({self.reason}: re-verified)" if self.reason else ""
        return (f"{self.disposition} \u2192 "
                f"V{target.vid}[{self.predicate}]{why}")


@dataclass(frozen=True)
class TreeCheckpoint:
    """A snapshot of a BlossomTree's construction state.

    Taken with :meth:`BlossomTree.checkpoint` before a speculative
    build (a where-endpoint chain, a pruning subtree) and restored with
    :meth:`BlossomTree.rollback` when the build turns out to be
    untranslatable — otherwise the abandoned vertices stay behind as
    dead weight (analyzer rule BT006).
    """

    n_vertices: int
    n_tree_edges: int
    n_crossing_edges: int
    #: value-predicate count per then-existing vertex (a ``self`` step
    #: can attach predicates to a pre-checkpoint vertex).
    predicate_counts: tuple[int, ...]


class BlossomTree:
    """The annotated graph: vertices, tree edges, crossing edges, roots."""

    def __init__(self) -> None:
        self.vertices: list[BlossomVertex] = []
        self.roots: list[BlossomVertex] = []
        self.tree_edges: list[TreeEdge] = []
        self.crossing_edges: list[CrossingEdge] = []
        #: variable name -> vertex bound to it
        self.var_vertex: dict[str, BlossomVertex] = {}
        #: return-clause path or ``order by`` key -> the leaf of its
        #: optional chain under its variable's vertex
        self.path_vertex: dict[LocationPath, BlossomVertex] = {}
        #: One entry per distinct top-level where-conjunct, in clause
        #: order; the executor compiles its per-tuple test from those
        #: that are not ``pushed-exact``.
        self.where: list[WhereConjunct] = []
        #: The executor's lazily compiled bind walk and finish.
        self.compiled: object | None = None

    # ------------------------------------------------------------------
    # Construction API (used by the builder).
    # ------------------------------------------------------------------

    def new_vertex(self, name: str) -> BlossomVertex:
        vertex = BlossomVertex(len(self.vertices), name)
        self.vertices.append(vertex)
        return vertex

    def new_root(self, name: str = "#root") -> BlossomVertex:
        vertex = self.new_vertex(name)
        self.roots.append(vertex)
        return vertex

    def add_edge(self, parent: BlossomVertex, child: BlossomVertex,
                 axis: str, mode: str) -> TreeEdge:
        if child.parent_edge is not None:
            raise ValueError(f"vertex {child!r} already has a parent")
        edge = TreeEdge(parent, child, axis, mode)
        parent.child_edges.append(edge)
        child.parent_edge = edge
        self.tree_edges.append(edge)
        return edge

    def add_crossing(self, u: BlossomVertex, v: BlossomVertex, relation: str,
                     negated: bool = False) -> CrossingEdge:
        edge = CrossingEdge(u, v, relation, negated)
        u.returning = True
        v.returning = True
        self.crossing_edges.append(edge)
        return edge

    def bind_variable(self, name: str, vertex: BlossomVertex, kind: str) -> None:
        """Attach a for/let variable to a vertex, making it a blossom."""
        if name in self.var_vertex:
            raise ValueError(f"variable ${name} bound twice")
        vertex.variables.append(name)
        vertex.var_kinds[name] = kind
        vertex.returning = True
        self.var_vertex[name] = vertex

    # ------------------------------------------------------------------
    # Speculative construction.
    # ------------------------------------------------------------------

    def checkpoint(self) -> TreeCheckpoint:
        """Snapshot the tree before a speculative chain build."""
        return TreeCheckpoint(
            len(self.vertices), len(self.tree_edges),
            len(self.crossing_edges),
            tuple(len(v.value_predicates) for v in self.vertices))

    def rollback(self, mark: TreeCheckpoint) -> None:
        """Undo everything added since ``mark`` was taken.

        Removes the vertices, tree edges, crossing edges and value
        predicates created after the checkpoint and restores
        parent/child bookkeeping, so an abandoned speculative build
        leaves no trace (vertex ids stay dense because builds only
        append; a conjunct's disposition is recorded after its build).
        """
        for edge in self.tree_edges[mark.n_tree_edges:]:
            edge.parent.child_edges = [
                e for e in edge.parent.child_edges if e is not edge]
            edge.child.parent_edge = None
        del self.tree_edges[mark.n_tree_edges:]
        dropped = {id(v) for v in self.vertices[mark.n_vertices:]}
        del self.vertices[mark.n_vertices:]
        self.roots = [r for r in self.roots if id(r) not in dropped]
        self.var_vertex = {name: v for name, v in self.var_vertex.items()
                           if id(v) not in dropped}
        self.path_vertex = {path: v for path, v in self.path_vertex.items()
                            if id(v) not in dropped}
        del self.crossing_edges[mark.n_crossing_edges:]
        for vertex, count in zip(self.vertices, mark.predicate_counts,
                                 strict=True):
            del vertex.value_predicates[count:]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def iter_subtree(self, root: BlossomVertex) -> Iterator[BlossomVertex]:
        """Depth-first iteration of a vertex's pattern (sub)tree."""
        stack = [root]
        while stack:
            vertex = stack.pop()
            yield vertex
            for edge in reversed(vertex.child_edges):
                stack.append(edge.child)

    def pattern_root_of(self, vertex: BlossomVertex) -> BlossomVertex:
        node = vertex
        while node.parent_edge is not None:
            node = node.parent_edge.parent
        return node

    def blossoms(self) -> list[BlossomVertex]:
        return [v for v in self.vertices if v.is_blossom]

    def describe(self) -> str:
        """Multi-line textual rendering (tests and the examples use it)."""
        lines: list[str] = []
        for root in self.roots:
            self._describe_vertex(root, 0, lines)
        for conjunct in self.where:
            lines.append(f"where {conjunct.expr}: {conjunct}")
        return "\n".join(lines)

    def _describe_vertex(self, vertex: BlossomVertex, depth: int,
                         lines: list[str]) -> None:
        pad = "  " * depth
        variables = f" ${{{','.join(vertex.variables)}}}" if vertex.variables else ""
        preds = "".join(f"[{p}]" for p in vertex.value_predicates)
        ret = " (ret)" if vertex.returning else ""
        edge = vertex.parent_edge
        arrow = f"-{edge.axis},{edge.mode}-> " if edge else ""
        lines.append(f"{pad}{arrow}V{vertex.vid} {vertex.name}{preds}{variables}{ret}")
        for child_edge in vertex.child_edges:
            self._describe_vertex(child_edge.child, depth + 1, lines)
