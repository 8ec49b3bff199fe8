"""The NestedList abstract data type (paper Definition 2, Figures 3-4, 6).

A NestedList is "a nested list representation of an ordered tree
structure that is leveraged by the grouping notation []".  Matches of a
NoK pattern tree are NestedLists: each pattern vertex contributes a
*group* — the document-ordered list of XML nodes matched to it under a
given parent match — and nesting follows the pattern-tree structure.

Physical layout (Figure 6)
--------------------------
Figure 6 stores a match as a node pointer plus one child-pointer slot
per pattern child.  Sibling pointers become list adjacency, the slots
become per-child groups, and the "pointer to the last child" becomes
``list.append``.  Insertions happen at group tails during the
depth-first scan, which is what makes projections document-ordered
(Theorem 1).

Only a slot that holds a returning child under an uncut edge can ever
be filled: a cut ``//`` child's partners live in the join adjacency, and
an existential child counts only by the fact of its match.  Which
vertices have such a slot is decided once per pattern vertex by the
decomposition (:attr:`~repro.pattern.blossom.BlossomVertex.grouped`):

* a *grouped* vertex's match is an :class:`NLEntry` — the node pointer
  and its slots.  A slot nothing went into is ``()``, and an entry none
  of whose slots was filled shares the one immutable groups tuple of
  its width (:func:`no_groups`);
* every other vertex's match is the node pointer itself, the matched
  :class:`~repro.xmlkit.tree.Node`, with no wrapper: its slots would
  all stay empty.

A list of matches is always the matches of one vertex, so every reader
knows which of the two it holds without looking at an item
(:func:`match_nodes`, :func:`compile_projection`, :func:`sexpr`).

Nothing mutates an entry once it is built: σ copies the entries on the
path to its target whose group lost a member and shares the rest
(:mod:`repro.algebra.operators`), and π reads groups along a path
compiled once per (entry vertex, target), :func:`group_path`.

The textual ``(a1,[(b1,()),...])`` rendering of Figure 4 is produced by
:func:`sexpr` and is used verbatim in the paper-example tests.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache
from typing import TypeAlias

from repro.xmlkit.tree import Node
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex

__all__ = ["Match", "NLEntry", "compile_projection", "group_path",
           "match_nodes", "no_groups", "nok_root", "project",
           "project_entries", "sexpr", "sexpr_sequence", "walk"]

#: One match of a pattern vertex: an :class:`NLEntry` for a grouped
#: vertex, the matched node itself for any other.
Match: TypeAlias = "NLEntry | Node"

#: An entry's child-pointer slots: per pattern child, ``()`` or the
#: list of its matches.
Groups: TypeAlias = "Sequence[Sequence[Match]]"


@cache
def no_groups(width: int) -> tuple[tuple[()], ...]:
    """The groups of an entry none of whose ``width`` slots is filled:
    one shared immutable tuple per width."""
    return ((),) * width


class NLEntry:
    """One match of a grouped pattern vertex: the XML node plus child
    groups.

    ``groups[i]`` is the (possibly empty) document-ordered sequence of
    matches of ``vertex.child_edges[i].child`` *within this match* — the
    paper's ``[]`` grouping.  A slot nothing went into is ``()``; an
    entry with no filled slot holds :func:`no_groups` of its width.
    Matches of non-kept vertices (purely existential subtrees) are
    never stored; their existence was verified during matching.  The
    groups are read-only once the entry is built.
    """

    __slots__ = ("vertex", "node", "groups")

    def __init__(self, vertex: BlossomVertex, node: Node,
                 groups: Groups) -> None:
        self.vertex = vertex
        self.node = node
        self.groups = groups

    def group_for(self, child_vertex: BlossomVertex
                  ) -> Sequence[Match]:
        """The group of a specific pattern child."""
        for index, edge in enumerate(self.vertex.child_edges):
            if edge.child is child_vertex:
                return self.groups[index]
        raise KeyError(f"V{child_vertex.vid} is not a child of V{self.vertex.vid}")

    def sexpr(self, label: Callable[[Node], str] | None = None) -> str:
        """Figure-4 notation of this entry (see :func:`sexpr`)."""
        return sexpr(self, self.vertex, label)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NLEntry V{self.vertex.vid}:{self.node.tag or '·'}>"


def match_nodes(vertex: BlossomVertex, matches: Sequence[Match]
                ) -> Sequence[Node]:
    """The matched nodes of a list of ``vertex``'s matches, in order:
    the list itself when ``vertex`` is not grouped."""
    if vertex.grouped:
        return [entry.node for entry in matches]  # type: ignore[union-attr]
    return matches  # type: ignore[return-value]


def nok_root(vertex: BlossomVertex) -> BlossomVertex:
    """The root of the NoK pattern tree ``vertex`` belongs to."""
    edge = vertex.parent_edge
    while edge is not None and not edge.cut:
        vertex = edge.parent
        edge = vertex.parent_edge
    return vertex


def group_path(vertex: BlossomVertex, target: BlossomVertex
               ) -> tuple[tuple[int, bool], ...]:
    """The path from ``vertex`` down to ``target`` inside one NoK: per
    step, the slot index of the child on the way and whether its edge
    is mandatory.  ``()`` when ``target`` is ``vertex``; ``KeyError``
    when ``target`` is not below it or the path crosses a cut edge
    (projections across NoKs go through join adjacency instead).  Every
    vertex the path leaves is grouped when ``target`` is returning."""
    steps: list[tuple[int, bool]] = []
    node = target
    while node is not vertex:
        edge = node.parent_edge
        if edge is None:
            raise KeyError(f"V{target.vid} is not below V{vertex.vid}")
        if edge.cut:
            raise KeyError(
                f"projection from V{vertex.vid} to V{target.vid} crosses a "
                "NoK boundary; use the join adjacency instead")
        parent = edge.parent
        index = next(i for i, e in enumerate(parent.child_edges) if e is edge)
        steps.append((index, edge.mode == MODE_MANDATORY))
        node = parent
    steps.reverse()
    return tuple(steps)


def walk(entry: Match, steps: tuple[tuple[int, bool], ...]
         ) -> list[Match]:
    """The matches a :func:`group_path` reaches from ``entry``, in
    document order."""
    current = [entry]
    for index, _ in steps:
        current = [sub for item in current
                   for sub in item.groups[index]]  # type: ignore[union-attr]
    return current


def compile_projection(vertex: BlossomVertex, target: BlossomVertex
                       ) -> Callable[[Match], list[Node]]:
    """π compiled once per (entry vertex, target): a match of
    ``vertex`` to the document-ordered nodes matched to ``target``
    inside it (``target`` in the same NoK, see :func:`group_path`)."""
    steps = group_path(vertex, target)
    if not steps:
        if vertex.grouped:
            return lambda entry: [entry.node]  # type: ignore[union-attr]
        return lambda node: [node]  # type: ignore
    if not vertex.grouped:
        # No slot of ``vertex`` is ever filled: ``target`` is not kept.
        return lambda match: []
    grouped = target.grouped

    def project_match(entry: Match) -> list[Node]:
        found = walk(entry, steps)
        if grouped:
            return [e.node for e in found]  # type: ignore[union-attr]
        return found  # type: ignore[return-value]
    return project_match


def project_entries(entry: NLEntry, target: BlossomVertex
                    ) -> list[Match]:
    """Project an entry onto a descendant pattern vertex (π of Section 3.3).

    Returns the document-ordered matches of ``target`` inside this
    NestedList (entries or nodes, as ``target`` is grouped or not).
    ``target`` must lie in the same NoK pattern tree (see
    :func:`group_path`).
    """
    return walk(entry, group_path(entry.vertex, target))


def project(entry: NLEntry, target: BlossomVertex) -> list[Node]:
    """Node-level projection: matched XML nodes of ``target``, in
    document order (Theorem 1 guarantees the order)."""
    return compile_projection(entry.vertex, target)(entry)


def sexpr(match: Match, vertex: BlossomVertex,
          label: Callable[[Node], str] | None = None) -> str:
    """Figure-4 notation of a match of ``vertex``: ``()`` nests, ``[]``
    groups.

    ``label`` renders a matched node (default: ``tag`` + 1-based
    occurrence index is *not* known here, so the default is the tag
    name; tests pass a labeller built from the document).  A match
    without an entry renders as an entry whose slots are all empty.
    """
    render = label if label is not None else (lambda n: n.tag or "#text")
    return _sexpr(match, vertex, render)


def _sexpr(match: Match, vertex: BlossomVertex,
           render: Callable[[Node], str]) -> str:
    if not vertex.grouped:
        name = render(match)  # type: ignore[arg-type]
        return "(" + ",".join(([name] if name else [])
                              + ["()"] * len(vertex.child_edges)) + ")"
    assert isinstance(match, NLEntry)
    name = render(match.node)
    parts = [name] if name else []
    for group, edge in zip(match.groups, vertex.child_edges):
        child = edge.child
        if not group:
            parts.append("()")
        elif len(group) == 1:
            parts.append(_sexpr(group[0], child, render))
        else:
            parts.append("[" + ",".join(_sexpr(e, child, render)
                                        for e in group) + "]")
    return "(" + ",".join(parts) + ")"


def sexpr_sequence(matches: Sequence[Match], vertex: BlossomVertex,
                   label: Callable[[Node], str] | None = None) -> str:
    """Render a sequence of ``vertex``'s NestedLists the way the paper
    lists results."""
    return "[" + ",\n ".join(sexpr(m, vertex, label) for m in matches) + "]"
