"""NoK pattern-tree matching (paper Algorithm 2 / Section 4.1).

A NoK pattern tree — only local axes — is evaluated against a document
with a single sequential pass, producing a sequence of NestedLists
ordered by the document order of their root matches.  That emission
order is what Theorem 1's order-preservation proof rests on, and the
joins rely on it.

Differences from the pseudo-code, for exactness and for speed:

* Algorithm 2 walks the document one node at a time and interleaves
  result construction with frontier deletion.  Here the pattern is
  matched one *vertex* at a time over candidate lists (set-at-a-time):
  a vertex filters its whole candidate list one predicate at a time,
  collects the children of the survivors per local edge (two or more
  named edges without a sibling constraint share one pass filling a
  list per tag), hands each
  child vertex all of them in one call, drops each candidate that lacks
  a mandatory child (found through the ``parent`` of each child match)
  and builds the survivors' groups in child order.  The mandatory
  edges without a sibling constraint run first; every other edge — an
  optional ``let``, where-endpoint, return or order-by branch — only
  collects children under the candidates they kept, and is charged
  only for those.  The work per
  scanned node is still constant — per candidate, one step per
  predicate and one per (child, applicable edge) — but it is paid in
  comprehensions per vertex instead of Python calls per node.  The
  declared Definition-1 semantics are implemented directly (mandatory
  children need at least one match, optional children may be empty,
  all matches of a child are grouped); the produced physical structure
  is the Figure-6 layout (see :mod:`repro.algebra.nested_list`): a
  vertex's matches are its nodes, and the runs of a returning local
  child go into that child's run table, keyed by the parent match.
* ``following-sibling`` edges are decided by nid order within one
  parent, as the frontier mechanism does: a successor child is a
  candidate only after its predecessor's first match among the same
  parent's children.
* Value constraints run as filters compiled once per vertex
  (:func:`repro.xpath.compile.compile_filter`, which delegates what it
  does not specialise to the XPath interpreter) with each candidate
  element as context node, so constraints like ``[. = "Smith"]``,
  ``[@year = "2000"]`` or ``[not(author)]`` behave identically in every
  engine in this repository.  Each evaluated predicate counts one
  comparison per candidate it is asked about, as before.
* A predicate that mentions a variable is *late-bound* (a pushed
  where-conjunct ``. op $p``): it reads the request's bindings, an
  argument of every batch call and never state of the shared plan.
  Without bindings — no request: a tool scanning a decomposition — a
  batch skips those filters and yields the structural superset.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from operator import attrgetter
from typing import cast

from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.xmlkit.storage import ScanCounters, scan_candidates
from repro.xmlkit.tree import ELEMENT, Document, Node
from repro.xpath.ast import mentions_variable
from repro.xpath.compile import Bindings, Filter, compile_filter
from repro.algebra.nested_list import Groups, add_table

__all__ = ["Batch", "NoKMatcher", "compile_matcher", "filtered",
           "matcher_for", "scan_range"]

#: A compiled pattern vertex: ``fn(candidates, counters, variables,
#: groups)`` is the matches of the vertex's NoK subtree among
#: ``candidates`` (whose tag the caller has tested), in their order,
#: under the request's bindings; the runs of the returning vertices
#: below go into ``groups``.
Batch = Callable[[list[Node], ScanCounters, "Bindings | None", Groups],
                 list[Node]]

#: What a predicate that mentions no variable is given (never written).
_NO_VARIABLES: Bindings = {}
#: The ``after`` of a successor whose predecessor is no local sibling:
#: it never becomes a candidate.
_NEVER = -1
_PARENT = attrgetter("parent")
_NID = attrgetter("nid")


class NoKMatcher:
    """Evaluates one NoK pattern tree over one document.

    Parameters
    ----------
    nok:
        The NoK pattern tree (from :func:`repro.pattern.decompose.decompose`).
    doc:
        The input document.
    counters:
        Shared work counters; the driving sequential scan reports its
        I/O here and every predicate evaluation counts a comparison.
    start_nid, stop_nid:
        Optional scan range (pre-order ranks).  The bounded nested-loop
        join re-runs matchers over subtree ranges through these.
    variables:
        The request's bindings, for late-bound vertex tests (``{}``
        outside a request: a plan with such a test then fails loudly).
    groups:
        Receives the run tables of the NoK's returning vertices (a
        fresh dict by default, kept as ``self.groups``).
    """

    def __init__(self, nok: NoKTree, doc: Document,
                 counters: ScanCounters | None = None,
                 start_nid: int = 0, stop_nid: int | None = None,
                 *, variables: Bindings, groups: Groups | None = None
                 ) -> None:
        self.nok = nok
        self.doc = doc
        self.counters = counters if counters is not None else ScanCounters()
        self.start_nid = start_nid
        self.stop_nid = stop_nid
        self.variables = variables
        self.groups: Groups = groups if groups is not None else {}

    def matches(self) -> list[Node]:
        """All root matches, in document order."""
        return scan_range([self.nok], self.doc, self.counters, None,
                          self.start_nid, self.stop_nid,
                          self.variables, self.groups)[self.nok.nok_id]


def scan_range(noks: list[NoKTree], doc: Document, counters: ScanCounters,
               per_nok: dict[int, ScanCounters] | None = None,
               start_nid: int = 0, stop_nid: int | None = None,
               variables: Bindings | None = None,
               groups: Groups | None = None) -> dict[int, list[Node]]:
    """The match phase's only scan, over ``[start_nid, stop_nid)``.

    :class:`NoKMatcher` runs it for one NoK, the merged scan
    (:func:`~repro.physical.nok_merge.merged_scan`) over the whole
    document for several; a partition of the parallel scan — thread or
    worker process — runs it over its own nid range, and Theorem 1
    makes the per-range lists concatenate to the whole-document answer.
    Each NoK's root batch gets its candidates as one list per pass
    (:func:`~repro.xmlkit.storage.scan_candidates`: the root tag's
    postings, or every element for a ``*`` root), one per stride when a
    budget or a cancellation token paces the pass.

    ``per_nok`` optionally maps ``nok_id`` to a private
    :class:`ScanCounters` charged with that NoK's match work; the
    private counters are folded back into ``counters`` before
    returning, even when the scan aborts (DNF).  ``variables`` are the
    request's bindings, read by late-bound vertex filters; without a
    request (``None``) those filters are not applied.

    Returns each NoK's root list; ``groups`` (a fresh dict by default)
    receives the run table of each returning vertex under an uncut edge
    of the NoKs that has a non-empty run under some kept parent.
    """
    results: dict[int, list[Node]] = {nok.nok_id: [] for nok in noks}
    if groups is None:
        groups = {}
    tags: list[str] = []
    targets: list[tuple[Batch, list[Node], ScanCounters]] = []
    try:
        for nok in noks:
            batch = matcher_for(nok)
            charged = (counters if per_nok is None
                       else per_nok.setdefault(nok.nok_id, ScanCounters()))
            if nok.root.name == "#root":
                # Pattern-tree-root NoKs match the document node, not a
                # scanned element.  It is slot 0, so the range starting
                # there owns it — once per document however it is cut.
                if start_nid == 0:
                    results[nok.nok_id] += batch(
                        [doc.document_node], charged, variables, groups)
            else:
                tags.append(nok.root.name)
                targets.append((batch, results[nok.nok_id], charged))
        if targets:
            for lists in scan_candidates(doc, counters, tags, start_nid,
                                         stop_nid):
                for (batch, matched, charged), candidates in zip(
                        targets, lists):
                    if candidates:
                        matched += batch(candidates, charged, variables,
                                         groups)
    finally:
        if per_nok is not None:
            for private in per_nok.values():
                counters.merge(private)
    return results


def filtered(vertex: BlossomVertex, nodes: list[Node],
             counters: ScanCounters) -> list[Node]:
    """``nodes`` that satisfy every value predicate of ``vertex``.

    TwigStack's stream filter: like a NoK batch it counts one
    comparison per predicate evaluated on each node, and a node failing
    one is not asked the next.  The compiled filters are kept on the
    vertex — TwigStack knows no NoK, and runs bare paths only: no where
    clause, so no late-bound test.
    """
    if vertex.tests is None:  # a race compiles an equal tuple twice
        vertex.tests = _compile_filters(vertex)[0]
    return _apply(vertex.tests, nodes, counters, _NO_VARIABLES)


def _apply(filters: tuple[Filter, ...], nodes: list[Node],
           counters: ScanCounters, variables: Bindings) -> list[Node]:
    for keep in filters:
        if not nodes:
            break
        counters.comparisons += len(nodes)
        nodes = keep(nodes, variables)
    return nodes


def _compile_filters(vertex: BlossomVertex
                     ) -> tuple[tuple[Filter, ...], tuple[Filter, ...]]:
    """The vertex's predicates compiled: (static, late-bound).  A
    ``#root`` vertex matches the document node, which is tested by
    nothing."""
    static: list[Filter] = []
    late: list[Filter] = []
    if vertex.name != "#root":
        for predicate in vertex.value_predicates:
            (late if mentions_variable(predicate) else static).append(
                compile_filter(predicate))
    return tuple(static), tuple(late)


def matcher_for(nok: NoKTree) -> Batch:
    """The NoK's compiled root batch, built on first use and kept on
    the NoK — fetch it once per scan, call it per candidate list."""
    if nok.matcher is None:  # a race compiles an equal batch twice
        nok.matcher = compile_matcher(nok.root)
    return cast(Batch, nok.matcher)


def compile_matcher(vertex: BlossomVertex) -> Batch:
    """Compile ``vertex`` and the NoK subtree below it (uncut edges)
    into one batch.

    The closure alone holds what is compiled here (the filters too),
    so all of it is freed with the closure's owner.

    A match is its node, so nothing is built per match.  The runs of a
    returning local child — its matches per parent, which the batch
    collects anyway to drop the candidates a mandatory child misses —
    become that child's run table in ``groups``, restricted to the
    candidates the batch kept.  A cut ``//`` child and an existential
    child get no table.
    """
    static, late = _compile_filters(vertex)
    local = [edge for edge in vertex.child_edges if not edge.cut]
    position = {edge.child.vid: at for at, edge in enumerate(local)}
    # Per local edge, in edge order: the child tag, its batch (``None``
    # for a child without filters or local children: the tag test is
    # its whole match), whether it is mandatory and the position of the
    # edge it must follow (``None``: no sibling constraint).
    edges: list[tuple[str, Batch | None, bool, int | None]] = []
    for edge in local:
        child = edge.child
        plain = not child.value_predicates \
            and all(sub.cut for sub in child.child_edges)
        edges.append((
            child.name, None if plain else compile_matcher(child),
            edge.mode == MODE_MANDATORY,
            None if child.after_vid is None
            else position.get(child.after_vid, _NEVER)))
    # Two phases: the mandatory edges without a sibling constraint run
    # over every candidate, the other edges only over the candidates
    # those kept.  Per phase, the named edges without a sibling
    # constraint — two or more — share one pass over the children,
    # filling a list per tag.
    first = [at for at, (_, _, mandatory, after) in enumerate(edges)
             if mandatory and after is None]
    phases: list[tuple[list[int], frozenset[str]]] = []
    for ats in (first, [at for at in range(len(edges)) if at not in first]):
        named = [edges[at][0] for at in ats
                 if edges[at][0] != "*" and edges[at][3] is None]
        if ats:
            phases.append((ats, frozenset(named) if len(named) > 1
                           else frozenset()))
    # Per successor edge, (its position, its predecessor's).
    sequenced = [(at, before) for at, e in enumerate(edges)
                 if (before := e[3]) is not None]
    # Definition 1 cuts a predecessor's matches after the last match of
    # a mandatory successor.  Per such successor, (its predecessor, it),
    # successors of successors first: chains compose.
    ordered = [(before, at) for at, before in reversed(sequenced)
               if edges[at][2]]
    # Per returning edge, (its position, the vid of its table).
    filled = [(at, edge.child.vid) for at, edge in enumerate(local)
              if edge.child.returning]
    # The edges whose matches are needed per parent, not only the
    # parents that have one: returning edges, successors, predecessors.
    per_parent = {at for at, _ in filled} | {at for pair in sequenced
                                             for at in pair}

    def batch(nodes: list[Node], counters: ScanCounters,
              variables: Bindings | None, groups: Groups) -> list[Node]:
        nodes = _apply(static, nodes, counters, _NO_VARIABLES)
        if late and variables is not None:
            nodes = _apply(late, nodes, counters, variables)
        if not edges or not nodes:
            return nodes
        kept = nodes
        # Per edge that needs them: parent -> its matches under the
        # edge, in child order (a predecessor that is no local sibling
        # has none).
        runs: dict[int, dict[Node, list[Node]]] = {_NEVER: {}}
        # Per edge in ``runs``: how many parents it ran over.
        over: dict[int, int] = {}
        for ats, shared in phases:
            parents = kept
            if not parents:
                return kept
            if shared:
                by_tag: dict[str | None, list[Node]] = {
                    name: [] for name in shared}
                bucket_of = by_tag.get
                for p in parents:
                    for c in p.children:
                        bucket = bucket_of(c.tag)
                        if bucket is not None:
                            bucket.append(c)
            for at in ats:
                name, child_batch, mandatory, after = edges[at]
                if name in shared and after is None:
                    children = by_tag[name]
                elif after is None:
                    children = ([c for p in parents for c in p.children
                                 if c.kind == ELEMENT] if name == "*" else
                                [c for p in parents for c in p.children
                                 if c.tag == name])
                else:
                    # A successor child is a candidate once a
                    # predecessor matched among its earlier siblings.
                    before = runs[after]
                    since = [(p, before[p][0].nid) for p in parents
                             if p in before]
                    children = ([c for p, nid in since for c in p.children
                                 if c.kind == ELEMENT and c.nid > nid]
                                if name == "*" else
                                [c for p, nid in since for c in p.children
                                 if c.tag == name and c.nid > nid])
                counters.comparisons += len(children)
                matches = children if child_batch is None \
                    else child_batch(children, counters, variables, groups)
                if at in per_parent:
                    runs[at] = _by_parent(matches)
                    over[at] = len(parents)
                if mandatory:
                    have = runs[at] if at in runs \
                        else set(map(_PARENT, matches))
                    kept = [p for p in kept if p in have]
        if not filled:
            return kept
        if ordered:
            for p in kept:
                for before, after in ordered:
                    # Predecessor matches after the last successor
                    # match (which survived its own cut) leave.
                    cut = runs[before][p]
                    del cut[bisect_left(cut, runs[after][p][-1].nid,
                                        key=_NID):]
        for at, vid in filled:
            table = runs[at]
            if len(kept) < over[at]:
                table = {p: run for p in kept
                         if (run := table.get(p)) is not None}
            add_table(groups, vid, table)
        return kept
    return batch


def _by_parent(matches: list[Node]) -> dict[Node, list[Node]]:
    """``matches`` of one edge, which come parent by parent, as
    parent -> its matches in child order."""
    runs: dict[Node | None, list[Node]] = {}
    last = None
    for match in matches:
        parent = match.parent
        if parent is last:
            run.append(match)
        else:
            run = runs[parent] = [match]
            last = parent
    return cast("dict[Node, list[Node]]", runs)
