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
from repro.pattern.blossom import BlossomVertex
from repro.algebra.nested_list import NLEntry, group_path, no_groups

__all__ = ["select"]

#: A compiled σ: the entry itself when nothing under it changed, a
#: copy when a group on the path lost a member, ``None`` when it leaves.
_Keep = Callable[[NLEntry], "NLEntry | None"]


def select(entries: Iterable[NLEntry], target: BlossomVertex,
           predicate: Callable[[Node], bool]) -> list[NLEntry]:
    """σ: filter the items matched to ``target`` by a node predicate.

    Items failing the predicate are removed from their group; if a
    removal leaves a mandatory vertex without matches, the whole
    NestedList is removed from the sequence (the paper's "not a valid
    match anymore" rule).

    σ is compiled once per entry vertex into the slot path down to
    ``target`` (:func:`~repro.algebra.nested_list.group_path`) with the
    mandatory flag per step.  An entry nothing under which changed — or
    whose NoK subtree does not hold ``target`` — is returned itself.
    Otherwise only the entries on that path whose group lost a member
    are copied; every other group is shared with the input.  The input
    entries are never mutated.
    """
    result: list[NLEntry] = []
    vertex: BlossomVertex | None = None
    keep: _Keep = _untouched
    for entry in entries:
        if entry.vertex is not vertex:
            vertex = entry.vertex
            keep = _compile(vertex, target, predicate)
        kept = keep(entry)
        if kept is not None:
            result.append(kept)
    return result


def _compile(vertex: BlossomVertex, target: BlossomVertex,
             predicate: Callable[[Node], bool]) -> _Keep:
    try:
        steps = group_path(vertex, target)
    except KeyError:
        return _untouched
    keep = _keep_target(predicate)
    for index, mandatory in reversed(steps):
        keep = _keep_step(index, mandatory, keep)
    return keep


def _untouched(entry: NLEntry) -> NLEntry:
    return entry


def _keep_target(predicate: Callable[[Node], bool]) -> _Keep:
    def keep(entry: NLEntry) -> NLEntry | None:
        node = entry.node
        return entry if node is not None and predicate(node) else None
    return keep


def _keep_step(index: int, mandatory: bool, below: _Keep) -> _Keep:
    """σ at one step of the path: filter slot ``index`` through
    ``below``."""
    def keep(entry: NLEntry) -> NLEntry | None:
        kept: list[NLEntry | None] = []
        changed = False
        for sub in entry.groups[index]:
            if sub is None:
                kept.append(sub)
                continue
            survivor = below(sub)
            if survivor is not sub:
                changed = True
            if survivor is not None:
                kept.append(survivor)
        if mandatory and not kept:
            return None
        if not changed:
            return entry
        groups = list(entry.groups)
        groups[index] = kept or ()
        return NLEntry(entry.vertex, entry.node,
                       groups if any(groups) else no_groups(len(groups)))
    return keep
