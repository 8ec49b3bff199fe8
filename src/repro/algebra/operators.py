"""Logical operators on NestedList sequences (paper Section 3.3).

These are the algebra-level π / σ / ⋈ with exactly the semantics the
paper defines; they operate on sequences of NestedLists and are
parameterized by pattern vertices (the code-level face of Dewey IDs —
:class:`~repro.pattern.dewey.DeweyAssignment` maps between the two).

The physical operators in :mod:`repro.physical` implement the same
semantics with specialized algorithms; the property-based tests check
each physical operator against these definitions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.xmlkit.tree import Node
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.algebra.nested_list import NLEntry, project

__all__ = ["project_sequence", "select", "join", "Combined"]


def project_sequence(entries: Iterable[NLEntry], target: BlossomVertex) -> list[Node]:
    """π: concatenated projection over a sequence of NestedLists.

    The result of projecting a single NestedList is document-ordered
    (Theorem 1); the concatenation over a sequential-scan result is also
    document-ordered because scan matches are emitted in document order
    of their root nodes.
    """
    out: list[Node] = []
    for entry in entries:
        out.extend(project(entry, target))
    return out


def select(entries: Iterable[NLEntry], target: BlossomVertex,
           predicate: Callable[[Node], bool]) -> list[NLEntry]:
    """σ: filter the items matched to ``target`` by a node predicate.

    Items failing the predicate are removed from their group; if a
    removal leaves a mandatory vertex without matches, the whole
    NestedList is removed from the sequence (the paper's "not a valid
    match anymore" rule).  The input entries are not mutated — filtered
    copies are produced.
    """
    result: list[NLEntry] = []
    for entry in entries:
        filtered = _filter_entry(entry, target, predicate)
        if filtered is not None:
            result.append(filtered)
    return result


def _filter_entry(entry: NLEntry, target: BlossomVertex,
                  predicate: Callable[[Node], bool]) -> NLEntry | None:
    if entry.vertex is target:
        if entry.node is not None and predicate(entry.node):
            return entry
        return None
    copy = NLEntry(entry.vertex, entry.node, len(entry.groups))
    children = entry.vertex.children()
    for index, group in enumerate(entry.groups):
        child_vertex = children[index] if index < len(children) else None
        on_path = child_vertex is not None and _is_on_path(child_vertex, target)
        if not on_path:
            copy.groups[index] = list(group)
            continue
        new_group: list[NLEntry | None] = []
        for sub in group:
            if sub is None:
                new_group.append(None)
                continue
            filtered = _filter_entry(sub, target, predicate)
            if filtered is not None:
                new_group.append(filtered)
        edge = child_vertex.parent_edge
        if edge is not None and edge.mode == MODE_MANDATORY and not new_group:
            return None
        copy.groups[index] = new_group
    return copy


def _is_on_path(vertex: BlossomVertex, target: BlossomVertex) -> bool:
    """True iff ``target`` equals or lies below ``vertex`` via uncut edges."""
    node = target
    while node is not None:
        if node is vertex:
            return True
        edge = node.parent_edge
        if edge is None or edge.cut:
            return False
        node = edge.parent
    return False


class Combined:
    """The result of a logical join: one NestedList per joined pattern
    tree, kept side by side (the paper "fills out the placeholders";
    keeping the parts separate is the equivalent pointer-level move)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[NLEntry, ...]) -> None:
        self.parts = parts

    def project(self, target: BlossomVertex) -> list[Node]:
        for part in self.parts:
            try:
                return project(part, target)
            except KeyError:
                continue
        raise KeyError(f"V{target.vid} not reachable from any joined part")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Combined {len(self.parts)} parts>"


def join(left: Iterable, right: Iterable[NLEntry],
         predicate: Callable[[list[Node], list[Node]], bool],
         left_target: BlossomVertex, right_target: BlossomVertex) -> list[Combined]:
    """⋈: combine NestedLists whose projections satisfy the predicate.

    ``left`` items may be plain entries or :class:`Combined` results of
    earlier joins, so joins compose into sequences the way Section 3.3's
    "extended to a sequence of NestedLists" remark describes.  The
    predicate receives the two projected node lists; pairs for which it
    returns false produce the empty sequence (are dropped).
    """
    right_list = list(right)
    output: list[Combined] = []
    for litem in left:
        if isinstance(litem, Combined):
            lnodes = litem.project(left_target)
            lparts = litem.parts
        else:
            lnodes = project(litem, left_target)
            lparts = (litem,)
        for ritem in right_list:
            rnodes = project(ritem, right_target)
            if predicate(lnodes, rnodes):
                output.append(Combined(lparts + (ritem,)))
    return output
