"""Stack-based binary structural join (Al-Khalifa et al., reference [2]).

The general ancestor-descendant merge join over two document-ordered
region-labeled inputs.  Unlike the strict pipelined merge it is correct
when *both* sides nest (recursive documents), at the cost of a stack
whose depth is bounded by the input tree depth — the memory behaviour
Section 2.1 attributes to the advanced join-based algorithms.

The engine's optimizer picks this join for ``//`` inter edges on
recursive documents, where the pipelined merge is unsound and nested
loops are too slow.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.pattern.decompose import InterEdge
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Node
from repro.algebra.nested_list import NLEntry
from repro.physical.structural import JoinResult, count_operator

__all__ = ["stack_desc_join", "stack_join_pairs"]


def stack_desc_join(left_nodes: Iterable[Node],
                    right_entries: Iterable[NLEntry],
                    edge: InterEdge,
                    counters: ScanCounters | None = None) -> JoinResult:
    """Ancestor-descendant stack merge producing join adjacency.

    Both inputs must be document-ordered; nesting is allowed on both
    sides.  Equivalent output to
    :func:`~repro.physical.pipelined_join.caching_desc_join` — the two
    differ in provenance (this is the classic binary structural join,
    that is the paper's pipelined GetNext with caching bolted on) and
    are cross-checked in the tests.
    """
    if counters is None:
        counters = ScanCounters()
    result = JoinResult(edge)
    pairs = stack_join_pairs(
        list(left_nodes),
        [(e.node, e) for e in right_entries],
        counters)
    for ancestor, (_, entry) in pairs:
        result.add(ancestor, entry)
    count_operator("stack_join", result.pair_count())
    return result


def stack_join_pairs(ancestors: list[Node],
                     descendants: list[tuple[Node, object]],
                     counters: ScanCounters | None = None
                     ) -> list[tuple[Node, tuple[Node, object]]]:
    """Core stack merge over (node, payload) descendant items.

    Returns (ancestor, descendant-item) pairs ordered by descendant,
    then ancestor depth.  ``counters.peak_buffered`` records the maximum
    stack depth.
    """
    if counters is None:
        counters = ScanCounters()
    out: list[tuple[Node, tuple[Node, object]]] = []
    stack: list[Node] = []
    ai = 0
    n_anc = len(ancestors)
    token = counters.cancellation

    for item in descendants:
        if token is not None:
            token.checkpoint()
        node = item[0]
        assert node is not None
        # Push every ancestor that starts before this descendant,
        # popping closed regions first.
        while ai < n_anc and ancestors[ai].start < node.start:
            candidate = ancestors[ai]
            ai += 1
            while stack and stack[-1].end < candidate.start:
                stack.pop()
            stack.append(candidate)
            counters.note_buffer(len(stack))
        while stack and stack[-1].end < node.start:
            stack.pop()
        for ancestor in stack:
            counters.comparisons += 1
            if ancestor.start < node.start and node.end < ancestor.end:
                out.append((ancestor, item))
    return out
