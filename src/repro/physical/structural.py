"""Shared machinery for structural joins over NestedList streams.

Every structural join in this repository — the range join, the
pipelined merge, bounded and naive nested loops — produces the same
logical thing: for one inter-NoK edge ``u --descendant--> v``, the set
of (ancestor-node, descendant-match) pairs.  Under region labels the
partners of one ``u`` are a single contiguous run of the
document-ordered right input (the matches of ``v`` whose ``start``
falls inside ``u``'s region), so :class:`JoinResult` is that set as one
``(lo, hi)`` run per left node, keyed by the node's pre-order rank:
the executor's tuple enumeration looks up "which matches of the child
NoK hang under this particular u node" as one slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.obs.metrics import REGISTRY
from repro.pattern.decompose import InterEdge
from repro.xmlkit.tree import Node
from repro.algebra.nested_list import Match, compile_projection, nok_root

__all__ = ["JoinResult", "count_operator", "left_projection"]

_INVOCATIONS = REGISTRY.counter("repro_operator_invocations_total",
                                "Physical operator invocations")
_OUTPUT = REGISTRY.counter("repro_operator_output_total",
                           "Items emitted by physical operators")


def count_operator(operator: str, emitted: int) -> None:
    """The metrics epilogue of one completed physical operator (a scan,
    a structural join, a holistic twig join) that emitted ``emitted``
    items."""
    _INVOCATIONS.inc(operator=operator)
    _OUTPUT.inc(emitted, operator=operator)


@dataclass
class JoinResult:
    """Range form of one structural join's output.

    ``right`` is the join's right input, the document-ordered matches of
    ``edge.child`` in its representation; ``ranges[u_nid] = (lo, hi)``
    says that ``right[lo:hi]`` are exactly the matches whose node is a
    descendant of the left node with pre-order rank ``u_nid``.  Only
    non-empty runs are kept — nodes with no partners simply do not
    appear, and mandatory-edge filtering reads that absence.  ``pairs``
    is the number of (u, match) pairs, the sum of the run lengths.
    """

    edge: InterEdge
    right: Sequence[Match] = ()
    ranges: dict[int, tuple[int, int]] = field(default_factory=dict)
    pairs: int = 0


def left_projection(left_entries: Iterable[Match], edge: InterEdge) -> list[Node]:
    """Document-ordered distinct u-nodes projected from the left stream,
    the matches of ``edge.parent``'s NoK root.

    Theorem 1 makes each per-match projection document-ordered; matches
    arrive in document order of their roots, and child-axis chains give
    each u node a unique root, so the concatenation is already in
    document order and free of duplicates.  π is compiled once, from
    the NoK root to ``edge.parent``
    (:func:`~repro.algebra.nested_list.compile_projection`).  Only on
    recursive documents can match subtrees interleave; the
    concatenation is sorted and deduplicated only when a node arrives
    out of order.
    """
    parent = edge.parent
    root = nok_root(parent)
    nodes: list[Node]
    if root is not parent:
        project = compile_projection(root, parent)
        nodes = [node for match in left_entries for node in project(match)]
    elif root.grouped:
        # The match is the u match itself: no projection lists.
        nodes = [match.node for match in left_entries]  # type: ignore[union-attr]
    else:
        nodes = list(left_entries)  # type: ignore[arg-type]
    last = -1
    for node in nodes:
        if node.nid <= last:
            break
        last = node.nid
    else:
        return nodes
    nodes.sort(key=lambda n: n.nid)
    out: list[Node] = []
    last = -1
    for node in nodes:
        if node.nid != last:
            out.append(node)
            last = node.nid
    return out

