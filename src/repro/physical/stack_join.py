"""Stack-based binary structural join (Al-Khalifa et al., reference [2]).

The general ancestor-descendant merge join over two document-ordered
region-labeled inputs.  Unlike the strict pipelined merge it is correct
when *both* sides nest (recursive documents), at the cost of a stack
of open ancestors whose depth is bounded by the recursion degree of the
left tag.  It is also the paper's "modification with caching
capability" for recursive input (Section 4.2): the pipelined GetNext
merge with every still-open ancestor cached on that stack.  The peak
depth is recorded in ``counters.peak_buffered``, which is what the
recursion-memory ablation measures (reference [3]'s bound).

The engine's optimizer picks this join for ``//`` inter edges whose left
input can nest, where the pipelined merge is unsound and nested loops
are too slow.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.pattern.decompose import InterEdge
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Node
from repro.algebra.nested_list import Match
from repro.physical.structural import JoinResult, count_operator

__all__ = ["stack_desc_join"]


def stack_desc_join(left_nodes: Iterable[Node],
                    right_entries: Iterable[Match],
                    edge: InterEdge,
                    counters: ScanCounters | None = None) -> JoinResult:
    """Ancestor-descendant stack merge producing join adjacency.

    Both inputs must be document-ordered (the right one: the matches
    of ``edge.child``, in its representation); nesting is allowed on
    both sides.  Both are streamed: the stack holds every left node whose
    region is still open at the current right position, so each right
    entry pairs with *all* of its stacked ancestors, in stack order.
    """
    if counters is None:
        counters = ScanCounters()
    result = JoinResult(edge)
    adjacency = result.adjacency
    pairs = 0
    left_iter = iter(left_nodes)
    pending: Node | None = next(left_iter, None)
    stack: list[Node] = []
    token = counters.cancellation
    grouped = edge.child.grouped    # the right side's representation

    for entry in right_entries:
        if token is not None:
            token.checkpoint()
        node: Node = entry.node if grouped else entry  # type: ignore
        # Push every left node that starts before this right node,
        # popping closed regions first.
        while pending is not None and pending.start < node.start:
            while stack and stack[-1].end < pending.start:
                stack.pop()
            stack.append(pending)
            counters.note_buffer(len(stack))
            pending = next(left_iter, None)
        while stack and stack[-1].end < node.start:
            stack.pop()
        for ancestor in stack:
            counters.comparisons += 1
            if ancestor.start < node.start and node.end < ancestor.end:
                adjacency.setdefault(ancestor.nid, []).append(entry)
                pairs += 1
    result.pairs = pairs
    count_operator("stack_join", pairs)
    return result
