"""Nested-loop joins (paper Section 4.3).

For joins that are not order-preserving (``<<``, ``following``,
``isnot``, value joins) or when merge inputs cannot be trusted
(recursive documents), the paper falls back to nested loops:

* :func:`bounded_nested_loop_join` (BNLJ) — the paper's optimization
  for ``//`` edges: the outer side piggybacks the region ``(p1, p2)``
  of each ancestor match, and the inner NoK re-matches only within that
  subtree range instead of the whole document.
* :func:`naive_nested_loop_join` — the strawman the BNLJ ablation
  compares against: one full document scan of the inner NoK per outer
  node.
* :func:`nested_loop_pairs` — the generic all-pairs join used for
  ``<<``-style and value-based relationships (a Cartesian product with
  a predicate, as Section 4.3 concedes is unavoidable).

Both structural variants re-discover the inner matches by *scanning*,
which is what makes NL "require too many scans of the input" and DNF on
large recursive data in Table 3 — the scans charge
``counters.nodes_scanned`` and therefore burn the work budget.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

from repro.pattern.decompose import InterEdge, NoKTree
from repro.physical.nok import NoKMatcher
from repro.physical.structural import JoinResult, count_operator
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document, Node
from repro.xpath.compile import Bindings

__all__ = [
    "bounded_nested_loop_join",
    "naive_nested_loop_join",
    "nested_loop_pairs",
]

L = TypeVar("L")
R = TypeVar("R")


def bounded_nested_loop_join(left_nodes: Iterable[Node],
                             right: Sequence[Node],
                             inner_nok: NoKTree, doc: Document,
                             edge: InterEdge,
                             counters: ScanCounters | None = None,
                             *, variables: Bindings) -> JoinResult:
    """BNLJ: per outer node, re-match the inner NoK within its subtree.

    The outer NoK "piggybacks the range (p1, p2)" — here the pre-order
    rank range of the subtree — so the inner scan touches exactly the
    nodes below the outer match.  On bushy, shallow data the ranges are
    small and BNLJ is cheap; on deep recursive data ranges overlap
    heavily and the repeated scanning shows up directly in
    ``nodes_scanned``.

    ``right`` are the executor's already-reduced right-side matches,
    document-ordered: a rematch absent there was eliminated by a deeper
    mandatory join and must not resurface, and an outer node's partners
    are the run of ``right`` from the first to the last rematch found
    there (the descendants of one node are contiguous in document
    order), so downstream navigation sees the reduced matches.
    ``variables`` are the request's bindings, for the inner NoK's
    late-bound vertex tests.
    """
    counters = counters if counters is not None else ScanCounters()

    def rematch(outer: Node) -> Sequence[Node]:
        return NoKMatcher(
            inner_nok, doc, counters, outer.nid + 1,
            outer.nid + outer.subtree_size(), variables=variables).matches()
    return _rematch_join("bnlj", left_nodes, right, edge, counters,
                         rematch)


def naive_nested_loop_join(left_nodes: Iterable[Node],
                           right: Sequence[Node],
                           inner_nok: NoKTree, doc: Document,
                           edge: InterEdge,
                           counters: ScanCounters | None = None,
                           *, variables: Bindings) -> JoinResult:
    """Unbounded nested loop: full inner scan per outer node.

    The ablation baseline for BNLJ's range optimization and the
    harness's "NL" system.  See :func:`bounded_nested_loop_join` for
    the ``right`` contract and ``variables``.
    """
    counters = counters if counters is not None else ScanCounters()

    def rematch(outer: Node) -> Iterator[Node]:
        for node in NoKMatcher(inner_nok, doc, counters,
                               variables=variables).matches():
            counters.comparisons += 1
            if outer.is_ancestor_of(node):
                yield node
    return _rematch_join("nl", left_nodes, right, edge, counters,
                         rematch)


def _rematch_join(operator: str, left_nodes: Iterable[Node],
                  right: Sequence[Node], edge: InterEdge,
                  counters: ScanCounters,
                  rematch: Callable[[Node], Iterable[Node]]) -> JoinResult:
    """The loop both nested loops share: an outer node's partners run
    from the first to the last of its document-ordered ``rematch`` nodes
    that ``right`` holds (found by a bisect of their ``start``
    column)."""
    starts = [node.start for node in right]
    ranges: dict[int, tuple[int, int]] = {}
    pairs = 0
    token = counters.cancellation
    for outer in left_nodes:
        if token is not None:
            token.checkpoint()
        held = [at for node in rematch(outer)
                if (at := bisect_left(starts, node.start)) < len(starts)
                and starts[at] == node.start]
        if held:
            ranges[outer.nid] = (held[0], held[-1] + 1)
            pairs += len(held)
    count_operator(operator, pairs)
    return JoinResult(edge, right, ranges, pairs)


def nested_loop_pairs(left_items: Iterable[L], right_items: Iterable[R],
                      predicate: Callable[[L, R], bool],
                      counters: ScanCounters | None = None) -> list[tuple[L, R]]:
    """All-pairs join with a predicate (``<<``, value and mixed joins).

    Destroys document order on its output (Example 5), so nothing
    order-sensitive may be composed above it — the executor only feeds
    its output into order-insensitive tuple filtering.
    """
    if counters is None:
        counters = ScanCounters()
    right_list = list(right_items)
    out: list[tuple[L, R]] = []
    token = counters.cancellation
    for litem in left_items:
        if token is not None:
            token.checkpoint()
        for ritem in right_list:
            counters.comparisons += 1
            if predicate(litem, ritem):
                out.append((litem, ritem))
    count_operator("nl_pairs", len(out))
    return out
