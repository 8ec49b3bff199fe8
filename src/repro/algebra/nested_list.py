"""The NestedList abstract data type (paper Definition 2, Figures 3-4, 6).

A NestedList is "a nested list representation of an ordered tree
structure that is leveraged by the grouping notation []".  Matches of a
NoK pattern tree are NestedLists: each pattern vertex contributes a
*group* — the document-ordered list of XML nodes matched to it under a
given parent match — and nesting follows the pattern-tree structure.

Physical layout (Figure 6)
--------------------------
Figure 6 stores a match as a node pointer plus one child-pointer slot
per pattern child.  Here every match of every pattern vertex is its
:class:`~repro.xmlkit.tree.Node` — the node pointer — and a slot is a
*run table*, one per pattern vertex per execution, keyed by the node
pointer: ``groups[child.vid][parent_node]`` is the document-ordered
run of ``child``'s matches under that parent match (:data:`Groups`).
Sibling pointers become list adjacency, and the "pointer to the last
child" becomes ``list.append`` during the depth-first scan, which is
what makes projections document-ordered (Theorem 1).

Only a slot that holds a returning child under an uncut edge can ever
be filled: a cut ``//`` child's partners live in the join adjacency, and
an existential child counts only by the fact of its match.  So only
those vertices get a table — once a run is filled — and a table holds
exactly the parent matches with a non-empty run; a reader takes a
missing table as empty (``groups.get(vid, {})``).  A NoK's result is its root list — the
root matches in document order — plus the tables of its vertices; the
tables of one scan sit in one dict, whose parents never overlap between
scan strides or partitions, so concatenating scans is ``dict.update``.

Nothing mutates a table or a run once the scan has built it: σ replaces
the tables on the path to its target (:mod:`repro.algebra.operators`),
and π reads them along a path compiled once per (entry vertex, target),
:func:`projection_path`.

The textual ``(a1,[(b1,()),...])`` rendering of Figure 4 is produced by
:func:`sexpr` and is used verbatim in the paper-example tests.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TypeAlias

from repro.xmlkit.tree import Node
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex

__all__ = ["Groups", "add_table", "group_path", "nok_root", "project",
           "projection_path", "sexpr"]

#: The child-pointer slots of one execution: per vertex that has them,
#: by vid, parent match -> the run of the vertex's matches under it.
Groups: TypeAlias = "dict[int, dict[Node, list[Node]]]"


def add_table(groups: Groups, vid: int, table: dict[Node, list[Node]]
              ) -> None:
    """Merge one scan stride's or partition's table for ``vid`` into
    ``groups`` (adopting it where ``groups`` has none yet): no two of
    them share a parent, so the merge is ``dict.update``.  An empty
    table is not kept, so a table is present only where a run is."""
    if not table:
        return
    into = groups.get(vid)
    if into:
        into.update(table)
    else:
        groups[vid] = table


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
    step, the vid of the child on the way and whether its edge is
    mandatory.  ``()`` when ``target`` is ``vertex``; ``KeyError`` when
    ``target`` is not below it or the path crosses a cut edge
    (projections across NoKs go through join adjacency instead).  Every
    vertex on the path has a table when ``target`` is returning."""
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
        steps.append((node.vid, edge.mode == MODE_MANDATORY))
        node = edge.parent
    steps.reverse()
    return tuple(steps)


def projection_path(vertex: BlossomVertex, target: BlossomVertex
                    ) -> tuple[int, ...]:
    """π compiled once per (entry vertex, target): the vids of the
    tables :func:`project` reads (``target`` in the same NoK, see
    :func:`group_path`)."""
    return tuple(vid for vid, _ in group_path(vertex, target))


def project(nodes: Iterable[Node], path: Sequence[int], groups: Groups
            ) -> list[Node]:
    """π of Section 3.3: the nodes matched to the end of ``path`` inside
    the matches ``nodes``, in document order (Theorem 1: each match's
    projection is, and the runs of a level come parent by parent).  A
    vertex without a table — one that is not returning — keeps no
    match, so π onto or through it is empty."""
    out = list(nodes)
    for vid in path:
        table = groups.get(vid, {})
        out = [sub for node in out for sub in table.get(node, ())]
    return out


def sexpr(node: Node, vertex: BlossomVertex, groups: Groups,
          label: Callable[[Node], str] | None = None) -> str:
    """Figure-4 notation of the match ``node`` of ``vertex``: ``()``
    nests, ``[]`` groups.

    ``label`` renders a matched node (default: ``tag`` + 1-based
    occurrence index is *not* known here, so the default is the tag
    name; tests pass a labeller built from the document).  A slot with
    no table — a cut or existential child — renders empty.
    """
    render = label if label is not None else (lambda n: n.tag or "#text")
    return _sexpr(node, vertex, groups, render)


def _sexpr(node: Node, vertex: BlossomVertex, groups: Groups,
           render: Callable[[Node], str]) -> str:
    name = render(node)
    parts = [name] if name else []
    for edge in vertex.child_edges:
        child = edge.child
        run = groups.get(child.vid, {}).get(node)
        if not run:
            parts.append("()")
        elif len(run) == 1:
            parts.append(_sexpr(run[0], child, groups, render))
        else:
            parts.append("[" + ",".join(_sexpr(sub, child, groups, render)
                                        for sub in run) + "]")
    return "(" + ",".join(parts) + ")"

