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

from repro.errors import UsageError
from repro.xmlkit.tree import Node
from repro.pattern.blossom import BlossomVertex
from repro.algebra.nested_list import Groups, group_path

__all__ = ["select"]


def select(roots: list[Node], groups: Groups, vertex: BlossomVertex,
           target: BlossomVertex, predicate: Callable[[Node], bool]
           ) -> list[Node]:
    """σ over the NoK rooted at ``vertex`` (its root list ``roots`` and
    its tables in ``groups``): filter the items matched to ``target``
    by a node predicate.

    Items failing the predicate are removed from their run; if a
    removal leaves a mandatory vertex without matches, its parent match
    leaves the run above, up to the root list (the paper's "not a valid
    match anymore" rule).  Returns the root list: ``roots`` itself
    when no root leaves.

    The target is found by its path from ``vertex``
    (:func:`~repro.algebra.nested_list.group_path`); when ``vertex``'s
    NoK does not hold it, nothing changes.  A target below the root
    that is not returning keeps no match — it has no runs to filter —
    so σ on it raises :class:`~repro.errors.UsageError` (the executor
    filters join endpoints, which are returning).  When ``target`` is the root,
    the root list is filtered in one comprehension.  Otherwise each
    table on the path whose runs changed is replaced in ``groups`` by a
    new one that shares every run it did not change; no table and no
    run is ever mutated, so another holder of the old tables (a twin
    NoK) keeps them whole.
    """
    try:
        steps = group_path(vertex, target)
    except KeyError:
        return roots
    if steps and not target.returning:
        raise UsageError(f"σ on V{target.vid}: it keeps no match (it is "
                         "not returning), so it has no runs to filter")
    keep = predicate
    parents: Iterable[Node] | None = None   # to revisit; ``None``: all
    for vid, mandatory in reversed(steps):
        table = groups.get(vid, {})
        replaced: dict[Node, list[Node]] | None = None
        emptied: set[Node] = set()
        for parent in table if parents is None else parents:
            run = table.get(parent)
            if run is None:
                continue
            kept = [node for node in run if keep(node)]
            if len(kept) < len(run):
                if replaced is None:
                    replaced = dict(table)
                if kept:
                    replaced[parent] = kept
                else:
                    del replaced[parent]
                    emptied.add(parent)
        if replaced is None:
            return roots
        groups[vid] = replaced
        if not mandatory or not emptied:
            return roots
        # The emptied parents leave the run of their own parent.
        keep = _not_in(emptied)
        parents = {up for node in emptied
                   if (up := node.parent) is not None}
    kept = [node for node in roots if keep(node)]
    return roots if len(kept) == len(roots) else kept


def _not_in(gone: set[Node]) -> Callable[[Node], bool]:
    return lambda node: node not in gone
