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
from collections.abc import Sequence

from repro.obs.metrics import REGISTRY
from repro.pattern.decompose import InterEdge
from repro.xmlkit.tree import Node
from repro.algebra.nested_list import (Groups, nok_root, project,
                                       projection_path)

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
    ``edge.child``; ``ranges[u_nid] = (lo, hi)``
    says that ``right[lo:hi]`` are exactly the matches whose node is a
    descendant of the left node with pre-order rank ``u_nid``.  Only
    non-empty runs are kept — nodes with no partners simply do not
    appear, and mandatory-edge filtering reads that absence.  ``pairs``
    is the number of (u, match) pairs, the sum of the run lengths.
    """

    edge: InterEdge
    right: Sequence[Node] = ()
    ranges: dict[int, tuple[int, int]] = field(default_factory=dict)
    pairs: int = 0


def left_projection(left: Sequence[Node], edge: InterEdge,
                    groups: Groups) -> list[Node]:
    """Document-ordered distinct u-nodes projected from the left stream,
    the root list of ``edge.parent``'s NoK (whose tables are in
    ``groups``).

    Theorem 1 makes each per-match projection document-ordered; matches
    arrive in document order of their roots, and child-axis chains give
    each u node a unique root, so the concatenation is already in
    document order and free of duplicates.  π is compiled once, from
    the NoK root to ``edge.parent``
    (:func:`~repro.algebra.nested_list.projection_path`).  Only on
    recursive documents can match subtrees interleave; the
    concatenation is sorted and deduplicated only when a node arrives
    out of order.
    """
    parent = edge.parent
    nodes = project(left, projection_path(nok_root(parent), parent), groups)
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
