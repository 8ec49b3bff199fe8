"""The NestedList abstract data type (paper Definition 2, Figures 3-4, 6).

A NestedList is "a nested list representation of an ordered tree
structure that is leveraged by the grouping notation []".  Matches of a
NoK pattern tree are NestedLists: each pattern vertex contributes a
*group* — the document-ordered list of XML nodes matched to it under a
given parent match — and nesting follows the pattern-tree structure.

Physical layout (Figure 6)
--------------------------
Each match entry (:class:`NLEntry`) holds the matched XML node and one
group (Python list) per pattern child, which realizes exactly the
paper's design: sibling pointers become list adjacency, child-pointer
arrays become the per-child group lists, and the "pointer to the last
child" becomes ``list.append``.  An entry of a vertex without pattern
children — most entries: every leaf match — shares one empty, immutable
``groups`` instead of allocating its own.  Insertions happen at group tails
during the depth-first scan, which is what makes projections
document-ordered (Theorem 1).

The textual ``(a1,[(b1,()),...])`` rendering of Figure 4 is produced by
:meth:`NLEntry.sexpr` and is used verbatim in the paper-example tests.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.xmlkit.tree import Node
from repro.pattern.blossom import BlossomVertex

__all__ = ["NLEntry", "project", "project_entries", "sexpr_sequence"]


class NLEntry:
    """One match of a pattern vertex: the XML node plus child groups.

    ``groups[i]`` is the (possibly empty) document-ordered list of
    entries matched to ``vertex.children()[i]`` *within this match* —
    the paper's ``[]`` grouping.  Entries for non-kept vertices (purely
    existential subtrees) are represented by ``None`` placeholders to
    save memory; their existence was verified during matching.  With no
    groups, ``groups`` is the shared empty tuple: replace it, never
    append to it.
    """

    __slots__ = ("vertex", "node", "groups")

    def __init__(self, vertex: BlossomVertex, node: Node | None,
                 n_groups: int) -> None:
        self.vertex = vertex
        self.node = node
        self.groups: Sequence[list[NLEntry | None]] = (
            [[] for _ in range(n_groups)] if n_groups else ())

    # ------------------------------------------------------------------
    # Navigation.
    # ------------------------------------------------------------------

    def group_for(self, child_vertex: BlossomVertex) -> list[NLEntry | None]:
        """The group of a specific pattern child."""
        children = self.vertex.children()
        for index, child in enumerate(children):
            if child is child_vertex:
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


def project_entries(entry: NLEntry, target: BlossomVertex) -> list[NLEntry]:
    """Project an entry onto a descendant pattern vertex (π of Section 3.3).

    Returns the document-ordered entries matched to ``target`` inside
    this NestedList.  ``target`` must lie in the same NoK pattern tree
    (projections across NoKs go through join adjacency instead).
    """
    if entry.vertex is target:
        return [entry]
    # Walk the vertex path from entry.vertex down to target.
    path: list[BlossomVertex] = []
    node = target
    while node is not entry.vertex:
        edge = node.parent_edge
        if edge is None:
            raise KeyError(f"V{target.vid} is not below V{entry.vertex.vid}")
        if edge.cut:
            raise KeyError(
                f"projection from V{entry.vertex.vid} to V{target.vid} crosses a "
                "NoK boundary; use the join adjacency instead")
        path.append(node)
        node = edge.parent
    path.reverse()

    current = [entry]
    for vertex in path:
        next_level: list[NLEntry] = []
        for item in current:
            for sub in item.group_for(vertex):
                if sub is not None:
                    next_level.append(sub)
        current = next_level
    return current


def project(entry: NLEntry, target: BlossomVertex) -> list[Node]:
    """Node-level projection: matched XML nodes of ``target``, in
    document order (Theorem 1 guarantees the order)."""
    return [e.node for e in project_entries(entry, target) if e.node is not None]


def sexpr_sequence(entries: list[NLEntry],
                   label: Callable[[Node], str] | None = None) -> str:
    """Render a sequence of NestedLists the way the paper lists results."""
    return "[" + ",\n ".join(e.sexpr(label) for e in entries) + "]"
