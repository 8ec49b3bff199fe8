"""Pipelined (merge-style) ``//``-join — Section 4.2's GetNext algorithm.

Both inputs arrive in document order: the left side by Theorem 1
(projection over a NoK sequential scan), the right side because NoK
matches are emitted in document order of their roots.  The join then
runs as a single merge pass, never materializing either input — the
"pipelined NoK" technique whose I/O savings Section 4.2 argues for.

:func:`pipelined_desc_join` is the strict merge of the paper's GetNext
pseudo-code, correct when left nodes do not nest (one tag cannot
contain itself: non-recursive documents, Theorem 2).  It keeps exactly
one candidate ancestor, i.e. O(1) buffering.  The "modification with
caching capability" the paper sketches for recursive inputs is the
ancestor-stack merge, :func:`~repro.physical.stack_join.stack_desc_join`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import pairwise

from repro.errors import ExecutionError
from repro.pattern.decompose import InterEdge
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Node
from repro.algebra.nested_list import Match
from repro.physical.structural import JoinResult, count_operator

__all__ = ["pipelined_desc_join"]


def pipelined_desc_join(left_nodes: Sequence[Node],
                        right_entries: Iterable[Match],
                        edge: InterEdge,
                        counters: ScanCounters | None = None) -> JoinResult:
    """Strict merge join for a ``//`` inter edge on non-nesting input.

    ``left_nodes`` (``left_projection``'s list: it is read twice) must
    be document-ordered and non-nesting — a chosen plan only runs this
    join on a non-recursive document under a left vertex that is not
    ``*``; ``right_entries``, the matches of ``edge.child`` in its
    representation, must be document-ordered by root.  Raises
    :class:`~repro.errors.ExecutionError` if the left input nests
    anywhere — also behind the last right entry, where the merge itself
    never looks — because silently producing partial output here is
    exactly the Example-5 trap the paper warns about.
    """
    if counters is None:
        counters = ScanCounters()
    result = JoinResult(edge)
    # In document order some pair nests iff an adjacent pair does.
    if any(inner.start < outer.end
           for outer, inner in pairwise(left_nodes)):
        raise ExecutionError(
            "pipelined //-join received nesting left input; use "
            "strategy='stack' or a nested-loop join on recursive data")
    adjacency = result.adjacency
    pairs = 0
    left_iter = iter(left_nodes)
    current: Node | None = next(left_iter, None)
    token = counters.cancellation
    grouped = edge.child.grouped    # the right side's representation

    for entry in right_entries:
        if token is not None:
            token.checkpoint()
        node: Node = entry.node if grouped else entry  # type: ignore
        # Advance the left cursor past ancestors that end before the
        # right node starts (the m << n branch of the GetNext code).
        while current is not None and current.end < node.start:
            current = next(left_iter, None)
        if current is None:
            break
        counters.comparisons += 1
        if current.start < node.start and node.end < current.end:
            adjacency.setdefault(current.nid, []).append(entry)
            pairs += 1
        # else: node precedes the current candidate; skip it (the
        # n << m branch — advance the right side).
    counters.note_buffer(1)
    result.pairs = pairs
    count_operator("pipelined_join", pairs)
    return result

