"""Merged NoK evaluation: many pattern trees, one sequential scan.

Section 4.2, technique (1): "if both NoK operators use a sequential
scan access method ... we can save I/O by merging multiple NoK
operators into one combined operator and using one scan only", the way
multiple DFAs merge into one NFA — each element of the pass is offered
to every NoK rooted at its tag, as that NoK's candidate list
(:func:`~repro.physical.nok.scan_range`).

The per-NoK match lists that come out are identical to what the
individual :class:`~repro.physical.nok.NoKMatcher` scans produce (the
ablation benchmark asserts this), but ``counters.nodes_scanned`` grows
by one document pass instead of one pass per NoK.

NoKs of one scan that are structurally identical (``for $a in
//book[price < 2], $b in //book[price < 2]``) are matched once: see
:func:`matched_once`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.pattern.blossom import BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.physical.nok import scan_range
from repro.physical.structural import count_operator
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document, Node
from repro.xpath.compile import Bindings
from repro.algebra.nested_list import Groups

__all__ = ["matched_once", "merged_scan", "share_twins"]


def matched_once(noks: list[NoKTree]
                 ) -> tuple[list[NoKTree], list[NoKTree]]:
    """``noks`` split into those a scan matches and their twins
    (:attr:`~repro.pattern.decompose.NoKTree.twin_of` names one of the
    former).  A twin is not matched — by no partition either: the scan's
    caller gives it the first's result afterwards (:func:`share_twins`)."""
    scanned = {nok.nok_id for nok in noks}
    return ([nok for nok in noks if nok.twin_of not in scanned],
            [nok for nok in noks if nok.twin_of in scanned])


def share_twins(twins: list[NoKTree], noks: list[NoKTree],
                results: dict[int, list[Node]], groups: Groups) -> None:
    """Each twin's result: a copy of the first's root list, and the
    first's tables under the twin's own vertices.  σ replaces the tables
    it changes and never mutates one, so reducing one twin leaves the
    other whole."""
    by_id = {nok.nok_id: nok for nok in noks}
    for nok in twins:
        assert nok.twin_of is not None
        first = by_id[nok.twin_of]
        results[nok.nok_id] = list(results[first.nok_id])
        for mine, theirs in _alike(nok.root, first.root):
            if theirs.vid in groups:
                groups[mine.vid] = groups[theirs.vid]


def _alike(vertex: BlossomVertex, twin: BlossomVertex
           ) -> Iterator[tuple[BlossomVertex, BlossomVertex]]:
    """The vertices of two equal-shaped NoK subtrees, pair by pair."""
    yield vertex, twin
    for edge, other in zip(vertex.child_edges, twin.child_edges):
        if not edge.cut:
            yield from _alike(edge.child, other.child)


def merged_scan(noks: list[NoKTree], doc: Document,
                counters: ScanCounters | None = None,
                per_nok: dict[int, ScanCounters] | None = None,
                variables: Bindings | None = None,
                groups: Groups | None = None
                ) -> dict[int, list[Node]]:
    """Evaluate several NoK pattern trees over one document in one scan.

    Returns ``{nok_id: roots}`` with each root list in document order —
    the same order-preservation contract as the single-NoK scan, so
    downstream merge joins work unchanged — and fills ``groups`` (a
    fresh dict by default) with the run tables of every NoK.

    ``per_nok`` optionally maps ``nok_id`` to a private
    :class:`ScanCounters` charged with that NoK's match work
    (comparisons), so the tracer can attribute work inside the shared
    scan to individual pattern trees.  The private counters are folded
    back into ``counters`` before returning, keeping the shared totals
    identical either way.

    ``variables`` are the request's bindings, read by late-bound vertex
    tests (pushed ``$v/path op $p`` where-conjuncts); every engine path
    passes them.  Without a request (``None``) those tests are not
    applied: such a plan yields the structural superset of its lists.
    """
    if counters is None:
        counters = ScanCounters()
    if groups is None:
        groups = {}
    scanned, twins = matched_once(noks)
    results = scan_range(scanned, doc, counters, per_nok,
                         variables=variables, groups=groups)
    share_twins(twins, scanned, results, groups)
    count_operator("merged_scan", sum(map(len, results.values())))
    return results
