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
from repro.algebra.nested_list import Match, NLEntry, group_path, no_groups

__all__ = ["select"]

#: A compiled σ: the match itself when nothing under it changed, a
#: copy when a group on the path lost a member, ``None`` when it leaves.
_Keep = Callable[[Match], "Match | None"]


def select(matches: Iterable[Match], vertex: BlossomVertex,
           target: BlossomVertex, predicate: Callable[[Node], bool]
           ) -> list[Match]:
    """σ over ``vertex``'s matches: filter the items matched to
    ``target`` by a node predicate.

    Items failing the predicate are removed from their group; if a
    removal leaves a mandatory vertex without matches, the whole
    NestedList is removed from the sequence (the paper's "not a valid
    match anymore" rule).

    σ is compiled once, from ``vertex`` and ``target``, into the slot
    path down to ``target``
    (:func:`~repro.algebra.nested_list.group_path`) with the mandatory
    flag per step, reading each vertex's representation on the way.  A
    match nothing under which changed — or every match, when ``vertex``'s
    NoK subtree does not hold ``target`` — is returned itself.
    Otherwise only the entries on that path whose group lost a member
    are copied; every other group is shared with the input.  The input
    is never mutated.
    """
    keep = _compile(vertex, target, predicate)
    if keep is None:
        return list(matches)
    result: list[Match] = []
    for match in matches:
        kept = keep(match)
        if kept is not None:
            result.append(kept)
    return result


def _compile(vertex: BlossomVertex, target: BlossomVertex,
             predicate: Callable[[Node], bool]) -> _Keep | None:
    try:
        steps = group_path(vertex, target)
    except KeyError:
        return None
    if steps and not vertex.grouped:
        # ``target`` is not kept, so the first slot on the path is
        # always empty: a mandatory one fails every match.
        return _leaves if steps[0][1] else None
    keep = _keep_entry(predicate) if target.grouped \
        else _keep_node(predicate)
    for index, mandatory in reversed(steps):
        keep = _keep_step(index, mandatory, keep)
    return keep


def _leaves(match: Match) -> None:
    return None


def _keep_node(predicate: Callable[[Node], bool]) -> _Keep:
    def keep(node: Match) -> Match | None:
        return node if predicate(node) else None  # type: ignore[arg-type]
    return keep


def _keep_entry(predicate: Callable[[Node], bool]) -> _Keep:
    def keep(entry: Match) -> Match | None:
        return entry if predicate(entry.node) else None  # type: ignore[union-attr]
    return keep


def _keep_step(index: int, mandatory: bool, below: _Keep) -> _Keep:
    """σ at one step of the path: filter slot ``index`` through
    ``below``."""
    def keep(match: Match) -> Match | None:
        entry: NLEntry = match  # type: ignore[assignment]
        kept: list[Match] = []
        changed = False
        for sub in entry.groups[index]:
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
