"""Region range join: the ``//``-join that is sound on any input.

Under region labels (Al-Khalifa et al., reference [2]) a right node is a
descendant of a left node ``u`` iff its ``start`` falls strictly inside
``u``'s region.  The right input is document-ordered, so its starts are
sorted and the partners of ``u`` are one contiguous run of it, two
bisects away: ``[bisect_right(starts, u.start), bisect_left(starts,
u.end))``.  That holds whether or not either side nests, so the join
needs neither Theorem 2's precondition nor a stack of open ancestors.
It is what the paper's "modification with caching capability" for
recursive input (Section 4.2) comes to when the cache is the right
input the match phase already holds, and ``auto`` runs it on every
``//`` inter edge.

Work: the right input's ``start`` column is built once, then each left
node costs two C-level bisects, charged as two ``comparisons``.
Nothing is charged per pair, and nothing is buffered beyond the right
input, so ``peak_buffered`` is not noted.  The cancellation token is
checked once, before the bisect pass: that pass is bounded by
O(left · log right).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import repeat

from repro.pattern.decompose import InterEdge
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Node
from repro.algebra.nested_list import Match, match_nodes
from repro.physical.structural import JoinResult, count_operator

__all__ = ["stack_desc_join"]


def stack_desc_join(left_nodes: Sequence[Node],
                    right_entries: Sequence[Match],
                    edge: InterEdge,
                    counters: ScanCounters | None = None) -> JoinResult:
    """Ancestor-descendant range join producing one run per left node.

    ``left_nodes`` (``left_projection``'s list) and ``right_entries``
    (the matches of ``edge.child``, in its representation) must be
    document-ordered; nesting is allowed on both sides.
    """
    if counters is None:
        counters = ScanCounters()
    if counters.cancellation is not None:
        counters.cancellation.check()
    starts = [node.start for node in match_nodes(edge.child, right_entries)]
    los = list(map(bisect_right, repeat(starts),
                   [u.start for u in left_nodes]))
    # A run ends no earlier than it starts (``lo`` bounds the second
    # bisect), and an empty one has ``hi == lo``.
    his = list(map(bisect_left, repeat(starts),
                   [u.end for u in left_nodes], los))
    ranges = {u.nid: (lo, hi)
              for u, lo, hi in zip(left_nodes, los, his) if lo < hi}
    counters.comparisons += 2 * len(left_nodes)
    pairs = sum(his) - sum(los)
    count_operator("stack_join", pairs)
    return JoinResult(edge, right_entries, ranges, pairs)
