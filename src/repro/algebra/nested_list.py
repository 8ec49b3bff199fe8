"""The NestedList abstract data type (paper Definition 2, Figures 3-4, 6).

A NestedList is "a nested list representation of an ordered tree
structure that is leveraged by the grouping notation []".  Matches of a
NoK pattern tree are NestedLists: each pattern vertex contributes a
*group* — the document-ordered list of XML nodes matched to it under a
given parent match — and nesting follows the pattern-tree structure.

Physical layout (Figure 6)
--------------------------
Each match entry (:class:`NLEntry`) holds the matched XML node and one
child-pointer slot per pattern child, which realizes exactly the
paper's design: sibling pointers become list adjacency, the slots of
the child-pointer array become the per-child groups, and the "pointer
to the last child" becomes ``list.append``.  A slot holds a list only
once a match went into it.  Most slots never do: every slot of a leaf
match, a cut ``//`` child's (its partners live in the join adjacency)
and an existential child's (only the fact of its match counts).  An
empty slot is ``()``, and an entry none of whose slots was filled
shares the one immutable groups tuple of its width (:func:`no_groups`)
instead of allocating its own.  Insertions happen at group tails during
the depth-first scan, which is what makes projections document-ordered
(Theorem 1).

Nothing mutates an entry once it is built: σ copies the entries on the
path to its target whose group lost a member and shares the rest
(:mod:`repro.algebra.operators`), and π reads groups along a path
compiled once per (entry vertex, target), :func:`group_path`.

The textual ``(a1,[(b1,()),...])`` rendering of Figure 4 is produced by
:meth:`NLEntry.sexpr` and is used verbatim in the paper-example tests.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache

from repro.xmlkit.tree import Node
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex

__all__ = ["NLEntry", "group_path", "no_groups", "project",
           "project_entries", "sexpr_sequence", "walk"]

#: An entry's child-pointer slots: per pattern child, ``()`` or the
#: list of its matches.
Groups = Sequence[Sequence["NLEntry | None"]]


@cache
def no_groups(width: int) -> tuple[tuple[()], ...]:
    """The groups of an entry none of whose ``width`` slots is filled:
    one shared immutable tuple per width."""
    return ((),) * width


class NLEntry:
    """One match of a pattern vertex: the XML node plus child groups.

    ``groups[i]`` is the (possibly empty) document-ordered sequence of
    entries matched to ``vertex.child_edges[i].child`` *within this
    match* — the paper's ``[]`` grouping.  A slot nothing went into is
    ``()``; an entry with no filled slot holds :func:`no_groups` of its
    width.  Entries for non-kept vertices (purely existential subtrees)
    are never stored; their existence was verified during matching.
    The groups are read-only once the entry is built.
    """

    __slots__ = ("vertex", "node", "groups")

    def __init__(self, vertex: BlossomVertex, node: Node | None,
                 groups: Groups) -> None:
        self.vertex = vertex
        self.node = node
        self.groups = groups

    # ------------------------------------------------------------------
    # Navigation.
    # ------------------------------------------------------------------

    def group_for(self, child_vertex: BlossomVertex
                  ) -> Sequence[NLEntry | None]:
        """The group of a specific pattern child."""
        for index, edge in enumerate(self.vertex.child_edges):
            if edge.child is child_vertex:
                return self.groups[index]
        raise KeyError(f"V{child_vertex.vid} is not a child of V{self.vertex.vid}")

    # ------------------------------------------------------------------
    # Rendering (paper notation).
    # ------------------------------------------------------------------

    def sexpr(self, label: Callable[[Node], str] | None = None) -> str:
        """Figure-4 notation: ``()`` nests, ``[]`` groups.

        ``label`` renders a matched node (default: ``tag`` + 1-based
        occurrence index is *not* known here, so the default is the tag
        name; tests pass a labeller built from the document).
        """
        render = label if label is not None else (lambda n: n.tag or "#text")
        return self._sexpr(render)

    def _sexpr(self, render: Callable[[Node], str]) -> str:
        name = render(self.node) if self.node is not None else ""
        parts = [name] if name else []
        for group in self.groups:
            real = [e for e in group if e is not None]
            if not real:
                parts.append("()")
            elif len(real) == 1:
                parts.append(real[0]._sexpr(render))
            else:
                parts.append("[" + ",".join(e._sexpr(render) for e in real) + "]")
        return "(" + ",".join(parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.node.tag if self.node is not None else "·"
        return f"<NLEntry V{self.vertex.vid}:{tag}>"


def group_path(vertex: BlossomVertex, target: BlossomVertex
               ) -> tuple[tuple[int, bool], ...]:
    """The path from ``vertex`` down to ``target`` inside one NoK: per
    step, the slot index of the child on the way and whether its edge
    is mandatory.  ``()`` when ``target`` is ``vertex``; ``KeyError``
    when ``target`` is not below it or the path crosses a cut edge
    (projections across NoKs go through join adjacency instead)."""
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


def project_entries(entry: NLEntry, target: BlossomVertex) -> list[NLEntry]:
    """Project an entry onto a descendant pattern vertex (π of Section 3.3).

    Returns the document-ordered entries matched to ``target`` inside
    this NestedList.  ``target`` must lie in the same NoK pattern tree
    (see :func:`group_path`).
    """
    return walk(entry, group_path(entry.vertex, target))


def walk(entry: NLEntry, steps: tuple[tuple[int, bool], ...]
         ) -> list[NLEntry]:
    """The entries a :func:`group_path` reaches from ``entry``, in
    document order."""
    current = [entry]
    for index, _ in steps:
        current = [sub for item in current for sub in item.groups[index]
                   if sub is not None]
    return current


def project(entry: NLEntry, target: BlossomVertex) -> list[Node]:
    """Node-level projection: matched XML nodes of ``target``, in
    document order (Theorem 1 guarantees the order)."""
    return [e.node for e in project_entries(entry, target) if e.node is not None]


def sexpr_sequence(entries: list[NLEntry],
                   label: Callable[[Node], str] | None = None) -> str:
    """Render a sequence of NestedLists the way the paper lists results."""
    return "[" + ",\n ".join(e.sexpr(label) for e in entries) + "]"
