"""Merged NoK evaluation: many pattern trees, one sequential scan.

Section 4.2, technique (1): "if both NoK operators use a sequential
scan access method ... we can save I/O by merging multiple NoK
operators into one combined operator and using one scan only", the way
multiple DFAs merge into one NFA — each scanned node is offered to
every NoK's root test.

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
from repro.physical.nok import Matcher, matcher_for
from repro.physical.structural import count_operator
from repro.xmlkit.storage import ScanCounters, SequentialScan, postings_scan
from repro.xmlkit.tree import Document
from repro.xpath.compile import Bindings, ScanBindings
from repro.algebra.nested_list import Match, NLEntry

__all__ = ["matched_once", "merged_scan", "relabel_twins", "scan_range"]

#: One dispatch-table entry: a NoK's compiled root matcher, the list
#: its matches go to, and the counters its match work is charged to.
_Target = tuple[Matcher, list[Match], ScanCounters]


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


def scan_range(noks: list[NoKTree], doc: Document, counters: ScanCounters,
               per_nok: dict[int, ScanCounters] | None = None,
               start_nid: int = 0, stop_nid: int | None = None,
               variables: Bindings | None = None
               ) -> dict[int, list[Match]]:
    """The match phase's only dispatch loop, over ``[start_nid, stop_nid)``.

    :func:`merged_scan` runs it over the whole document; a partition of
    the parallel scan — thread or worker process — runs it over its own
    nid range, and Theorem 1 makes the per-range lists concatenate to
    the whole-document answer.  Where every root is a name test the
    candidates come from the document's tag postings
    (:func:`~repro.xmlkit.storage.postings_scan`), else from
    :class:`SequentialScan`; the pass charged is the same.
    """
    results: dict[int, list[Match]] = {nok.nok_id: [] for nok in noks}
    if variables is not None:
        # This scan's own view: what its late-bound tests coerce a
        # scalar into is kept beside the bindings, never in the request's.
        variables = ScanBindings(variables)

    # Dispatch table, by the scanned node's tag.  Wildcard roots must
    # see each element; named roots see only their own tag's postings.
    # Same matches and the same counters either way (finding the
    # candidates never touched ScanCounters beyond the pass itself).
    by_tag: dict[str, list[_Target]] = {}
    wildcard: list[_Target] = []
    try:
        for nok in noks:
            root = nok.root
            match = matcher_for(nok)
            charged = (counters if per_nok is None
                       else per_nok.setdefault(nok.nok_id, ScanCounters()))
            if root.name == "#root":
                # Pattern-tree-root NoKs match the document node, not a
                # scanned element.  It is slot 0, so the range starting
                # there owns it — once per document however it is cut.
                if start_nid == 0:
                    entry = match(doc.document_node, charged, variables)
                    if entry is not None:
                        results[nok.nok_id].append(entry)
            elif root.name == "*":
                wildcard.append((match, results[nok.nok_id], charged))
            else:
                by_tag.setdefault(root.name, []).append(
                    (match, results[nok.nok_id], charged))

        if by_tag or wildcard:
            for targets in by_tag.values():
                targets += wildcard
            for node in (SequentialScan(doc, counters, start_nid, stop_nid)
                         if wildcard else
                         postings_scan(doc, counters, by_tag,
                                       start_nid, stop_nid)):
                for match, matched, charged in by_tag.get(node.tag, wildcard):
                    entry = match(node, charged, variables)
                    if entry is not None:
                        matched.append(entry)
    finally:
        # Fold private per-NoK work back into the shared totals even when
        # the scan aborts on a budget trip (DNF).
        if per_nok is not None:
            for private in per_nok.values():
                counters.merge(private)
    return results
