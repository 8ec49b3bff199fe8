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

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.pattern.decompose import InterEdge, NoKTree
from repro.physical.nok import NoKMatcher
from repro.physical.structural import JoinResult, axis_test, count_operator
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document, Node
from repro.xpath.compile import Bindings
from repro.algebra.nested_list import Match

__all__ = [
    "bounded_nested_loop_join",
    "naive_nested_loop_join",
    "nested_loop_pairs",
]

L = TypeVar("L")
R = TypeVar("R")


def bounded_nested_loop_join(left_nodes: Iterable[Node], inner_nok: NoKTree,
                             doc: Document, edge: InterEdge,
                             counters: ScanCounters | None = None,
                             canonical: dict[int, Match] | None = None,
                             *, variables: Bindings) -> JoinResult:
    """BNLJ: per outer node, re-match the inner NoK within its subtree.

    The outer NoK "piggybacks the range (p1, p2)" — here the pre-order
    rank range of the subtree — so the inner scan touches exactly the
    nodes below the outer match.  On bushy, shallow data the ranges are
    small and BNLJ is cheap; on deep recursive data ranges overlap
    heavily and the repeated scanning shows up directly in
    ``nodes_scanned``.

    ``canonical`` reconciles the rediscovered matches with the
    executor's already-reduced right-side matches (keyed by root nid):
    a rematch whose root is absent there was eliminated by a deeper
    mandatory join and must not resurface, and present ones must map to
    the *filtered* entry so downstream navigation sees reduced groups.
    ``variables`` are the request's bindings, for the inner NoK's
    late-bound vertex tests.
    """
    if counters is None:
        counters = ScanCounters()
    result = JoinResult(edge)
    adjacency = result.adjacency
    token = counters.cancellation
    grouped = edge.child.grouped    # the inner matches' representation
    for outer in left_nodes:
        if token is not None:
            token.checkpoint()
        start = outer.nid + 1
        stop = outer.nid + outer.subtree_size()
        matcher = NoKMatcher(inner_nok, doc, counters, start, stop,
                             variables=variables)
        for match in matcher.iter_matches():
            if canonical is not None:
                node: Node = match.node if grouped else match  # type: ignore
                match = canonical.get(node.nid)  # type: ignore[assignment]
                if match is None:
                    continue
            adjacency.setdefault(outer.nid, []).append(match)
            result.pairs += 1
    count_operator("bnlj", result.pairs)
    return result


def naive_nested_loop_join(left_nodes: Iterable[Node], inner_nok: NoKTree,
                           doc: Document, edge: InterEdge,
                           counters: ScanCounters | None = None,
                           canonical: dict[int, Match] | None = None,
                           *, variables: Bindings) -> JoinResult:
    """Unbounded nested loop: full inner scan per outer node.

    The ablation baseline for BNLJ's range optimization and the
    harness's "NL" system.  See :func:`bounded_nested_loop_join` for
    the ``canonical`` reconciliation contract and ``variables``.
    """
    if counters is None:
        counters = ScanCounters()
    result = JoinResult(edge)
    adjacency = result.adjacency
    token = counters.cancellation
    grouped = edge.child.grouped    # the inner matches' representation
    for outer in left_nodes:
        if token is not None:
            token.checkpoint()
        matcher = NoKMatcher(inner_nok, doc, counters, variables=variables)
        for match in matcher.iter_matches():
            node: Node = match.node if grouped else match  # type: ignore
            counters.comparisons += 1
            if not axis_test(edge.axis, outer, node):
                continue
            if canonical is not None:
                match = canonical.get(node.nid)  # type: ignore[assignment]
                if match is None:
                    continue
            adjacency.setdefault(outer.nid, []).append(match)
            result.pairs += 1
    count_operator("nl", result.pairs)
    return result


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
