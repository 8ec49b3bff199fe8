"""Pipelined (merge-style) ``//``-join — Section 4.2's GetNext algorithm.

Both inputs arrive in document order: the left side by Theorem 1
(projection over a NoK sequential scan), the right side because NoK
matches are emitted in document order of their roots.  The join then
runs as a single merge pass, never materializing either input — the
"pipelined NoK" technique whose I/O savings Section 4.2 argues for.

:func:`pipelined_desc_join` is the strict merge of the paper's GetNext
pseudo-code, correct when left nodes do not nest (one tag cannot
contain itself: non-recursive documents, Theorem 2).  It keeps exactly
one candidate ancestor, i.e. O(1) buffering.  It is Table 3's PL
column and runs only by name (``strategy="pipelined"``): ``auto`` runs
the range join, :func:`~repro.physical.stack_join.stack_desc_join`,
which is sound on nesting input too.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import pairwise

from repro.errors import ExecutionError
from repro.pattern.decompose import InterEdge
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Node
from repro.physical.structural import JoinResult, count_operator

__all__ = ["pipelined_desc_join"]


def pipelined_desc_join(left_nodes: Sequence[Node],
                        right: Sequence[Node],
                        edge: InterEdge,
                        counters: ScanCounters | None = None) -> JoinResult:
    """Strict merge join for a ``//`` inter edge on non-nesting input.

    ``left_nodes`` (``left_projection``'s list: it is read twice) must
    be document-ordered and non-nesting; ``right``, the matches of
    ``edge.child``, must be document-ordered.  Each left node's
    partners are the run of right positions it pairs (contiguous: the
    left nodes do not nest).  Raises
    :class:`~repro.errors.ExecutionError` if the left input nests
    anywhere — also behind the last right node, where the merge itself
    never looks — because silently producing partial output here is
    exactly the Example-5 trap the paper warns about.
    """
    if counters is None:
        counters = ScanCounters()
    # In document order some pair nests iff an adjacent pair does.
    if any(inner.start < outer.end
           for outer, inner in pairwise(left_nodes)):
        raise ExecutionError(
            "pipelined //-join received nesting left input; use "
            "strategy='stack' or a nested-loop join on recursive data")
    ranges: dict[int, tuple[int, int]] = {}
    pairs = lo = 0
    left_iter = iter(left_nodes)
    current: Node | None = next(left_iter, None)
    owner: Node | None = None       # the left node the open run belongs to
    token = counters.cancellation

    for at, node in enumerate(right):
        if token is not None:
            token.checkpoint()
        # Advance the left cursor past ancestors that end before the
        # right node starts (the m << n branch of the GetNext code).
        while current is not None and current.end < node.start:
            current = next(left_iter, None)
        if current is None:
            break
        counters.comparisons += 1
        if current.start < node.start and node.end < current.end:
            if current is not owner:
                owner, lo = current, at
            ranges[current.nid] = (lo, at + 1)
            pairs += 1
        # else: node precedes the current candidate; skip it (the
        # n << m branch — advance the right side).
    counters.note_buffer(1)
    count_operator("pipelined_join", pairs)
    return JoinResult(edge, right, ranges, pairs)

