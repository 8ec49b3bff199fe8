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

from repro.pattern.blossom import BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.physical.nok import scan_range
from repro.physical.structural import count_operator
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document
from repro.xpath.compile import Bindings
from repro.algebra.nested_list import Match, NLEntry

__all__ = ["matched_once", "merged_scan", "relabel_twins"]


def matched_once(noks: list[NoKTree]
                 ) -> tuple[list[NoKTree], list[NoKTree]]:
    """``noks`` split into those a scan matches and their twins
    (:attr:`~repro.pattern.decompose.NoKTree.twin_of` names one of the
    former).  A twin is not matched — by no partition either: the scan's
    caller gives it the first's list afterwards (:func:`relabel_twins`)."""
    scanned = {nok.nok_id for nok in noks}
    return ([nok for nok in noks if nok.twin_of not in scanned],
            [nok for nok in noks if nok.twin_of in scanned])


def relabel_twins(twins: list[NoKTree],
                  results: dict[int, list[Match]]) -> None:
    """Each twin's list: the first's, re-labelled onto its own vertices
    (σ reduces each list separately and an entry names its vertex, so
    the two lists share no entry; a node names none, so a vertex that
    is not grouped shares its matches)."""
    for nok in twins:
        assert nok.twin_of is not None
        matches = results[nok.twin_of]
        if nok.root.grouped:
            results[nok.nok_id] = [
                _relabel(entry, nok.root) for entry in matches]  # type: ignore[arg-type]
        else:
            results[nok.nok_id] = list(matches)


def _relabel(entry: NLEntry, vertex: BlossomVertex) -> NLEntry:
    """A copy of ``entry`` over the equal-shaped subtree at ``vertex``."""
    groups = entry.groups
    if not any(groups):
        return NLEntry(vertex, entry.node, groups)  # shared empty slots
    return NLEntry(vertex, entry.node, [
        [_relabel(sub, edge.child) for sub in group]  # type: ignore[arg-type]
        if group and edge.child.grouped else group
        for group, edge in zip(groups, vertex.child_edges)])


def merged_scan(noks: list[NoKTree], doc: Document,
                counters: ScanCounters | None = None,
                per_nok: dict[int, ScanCounters] | None = None,
                variables: Bindings | None = None
                ) -> dict[int, list[Match]]:
    """Evaluate several NoK pattern trees over one document in one scan.

    Returns ``{nok_id: matches}`` with each match list in document order
    of its root nodes — the same order-preservation contract as the
    single-NoK scan, so downstream merge joins work unchanged.

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
    noks, twins = matched_once(noks)
    results = scan_range(noks, doc, counters, per_nok, variables=variables)
    relabel_twins(twins, results)
    count_operator("merged_scan", sum(map(len, results.values())))
    return results
