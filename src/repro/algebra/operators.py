"""The σ of the NestedList algebra (paper Section 3.3).

``select`` filters the items matched to one pattern vertex with the
paper's semantics: a NestedList whose mandatory vertex loses its last
match leaves the sequence.  The executor runs it after each mandatory
``//``-join, on the left vertices that found no partner.  The
algebra's π is :func:`~repro.algebra.nested_list.project`; its ⋈
exists only as the physical joins of :mod:`repro.physical`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.xmlkit.tree import Node
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.algebra.nested_list import NLEntry

__all__ = ["select"]


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
    copy = NLEntry(entry.vertex, entry.node, 0)
    groups: list[list[NLEntry | None]] = []
    children = entry.vertex.children()
    for index, group in enumerate(entry.groups):
        child_vertex = children[index] if index < len(children) else None
        if child_vertex is None or not _is_on_path(child_vertex, target):
            groups.append(list(group))
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
        groups.append(new_group)
    if groups:
        copy.groups = groups
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
