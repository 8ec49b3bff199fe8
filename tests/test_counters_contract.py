"""The ScanCounters field contract.

``reset``/``snapshot``/``merge`` are driven by the dataclass field set
(:func:`repro.xmlkit.storage.counter_fields`), so they cannot drift
when a counter is added — this suite pins that contract down.
"""

from __future__ import annotations

import dataclasses

from repro.xmlkit.storage import CONFIG_FIELDS, ScanCounters, counter_fields


def test_counter_fields_is_every_field_except_config():
    names = {f.name for f in dataclasses.fields(ScanCounters)}
    assert set(counter_fields()) == names - set(CONFIG_FIELDS)
    assert set(CONFIG_FIELDS) == {"budget", "cancellation"}
    assert set(CONFIG_FIELDS) <= names


def test_snapshot_covers_exactly_the_counter_fields():
    counters = ScanCounters()
    assert set(counters.snapshot()) == set(counter_fields())
    # A fresh instance snapshots to all-zero.
    assert all(v == 0 for v in counters.snapshot().values())


def test_reset_zeroes_every_counter_but_keeps_the_budget():
    counters = ScanCounters(budget=7)
    for name in counter_fields():
        setattr(counters, name, 5)
    counters.reset()
    assert all(v == 0 for v in counters.snapshot().values())
    assert counters.budget == 7


def test_snapshot_is_a_copy_not_a_view():
    counters = ScanCounters()
    snap = counters.snapshot()
    counters.nodes_scanned = 99
    assert snap["nodes_scanned"] == 0


def test_merge_sums_counters_and_maxes_the_peak():
    a = ScanCounters()
    b = ScanCounters()
    for name in counter_fields():
        setattr(a, name, 2)
        setattr(b, name, 3)
    a.peak_buffered, b.peak_buffered = 10, 4
    a.merge(b)
    for name in counter_fields():
        if name == "peak_buffered":
            assert a.peak_buffered == 10    # max, not sum
        else:
            assert getattr(a, name) == 5, name


def test_trip_budget_increments_field_and_metric():
    from repro.obs.metrics import REGISTRY

    trips = REGISTRY.get("repro_budget_trips_total")
    before = trips.value()
    counters = ScanCounters()
    counters.trip_budget()
    assert counters.budget_trips == 1
    assert counters.snapshot()["budget_trips"] == 1
    assert trips.value() == before + 1


# ----------------------------------------------------------------------
# The registry-metric contract of the statistics family: the
# names are API (scrape configs and dashboards bind to them), so they
# are pinned here next to the counter-field contract.
# ----------------------------------------------------------------------

def test_stats_family_registered_with_stable_names():
    import repro.serve.service  # noqa: F401  (registers the gauges)
    from repro.obs.metrics import REGISTRY

    expected = {
        "repro_service_worker_utilization": "gauge",
        "repro_service_timeouts_total": "counter",
    }
    for name, kind in expected.items():
        metric = REGISTRY.get(name)
        assert metric is not None, name
        assert metric.kind == kind, name


def test_materialisation_counter_registered_with_its_consumer():
    """``repro_constructed_materialised_total`` counts the copies that
    construction by reference still makes: on navigation or before an
    in-place update, never the oracle's eager copies.  Its consumer is
    the copy-count contract in ``tests/test_construct_by_reference.py``:
    a serialize-only run counts 0, navigating one result root counts 1,
    navigating it again still 1, a naive run counts 0."""
    from repro.obs.metrics import REGISTRY
    from repro.xmlkit.tree import Constructed

    metric = REGISTRY.get("repro_constructed_materialised_total")
    assert metric is not None and metric.kind == "counter"
    before = metric.value()
    node = Constructed("r", {}, ["x"])
    node.materialise()
    node.materialise()
    assert metric.value() == before + 1


# ----------------------------------------------------------------------
# The access-method contract: a named-root scan walks tag postings, and
# everything a caller can count about it is what the SequentialScan
# dispatch it replaced would have counted.
# ----------------------------------------------------------------------

import random  # noqa: E402

import pytest  # noqa: E402

from repro.engine import compile_query  # noqa: E402
from repro.errors import (DNFError, QueryCancelledError,  # noqa: E402
                          QueryTimeoutError)
from repro.pattern.artifact import prepare_artifacts  # noqa: E402
from repro.physical.nested_loop import (  # noqa: E402
    bounded_nested_loop_join)
from repro.physical.nok import NoKMatcher, matcher_for  # noqa: E402
from repro.physical.nok_merge import scan_range  # noqa: E402
from repro.physical.stack_join import stack_desc_join  # noqa: E402
from repro.physical.structural import left_projection  # noqa: E402
from repro.xmlkit import parse  # noqa: E402
from repro.xmlkit.arena import DocumentArena  # noqa: E402
from repro.xmlkit.storage import (CancellationToken,  # noqa: E402
                                  SequentialScan)

STRIDE = 16
ROOT_SETS = [
    "for $x in //a return $x",
    "for $x in //b[c] return $x",
    "for $x in //a/b, $y in //c[. = 2] return $x",
    "for $x in //a, $y in //b[a], $z in //c/a return $x",
    "for $x in //zzz, $y in //b return $x",
]


def generated_document(seed: int) -> str:
    rng = random.Random(f"access-method:{seed}")

    def element(depth: int) -> str:
        tag = rng.choice("abc")
        if depth >= 5 or rng.random() < 0.25:
            return f"<{tag}>{rng.randint(0, 3)}</{tag}>"
        return (f"<{tag}>" + "".join(element(depth + 1)
                                     for _ in range(rng.randint(1, 4)))
                + f"</{tag}>")
    return "<r>" + "".join(element(1) for _ in range(12)) + "</r>"


def named_noks(text: str):
    noks = prepare_artifacts(compile_query(text).tree).decomposition.noks
    return [nok for nok in noks if nok.root.name != "#root"]


def sequential_dispatch(noks, doc, counters, start=0, stop=None):
    """The loop the postings walk replaced: every slot of the range
    through ``SequentialScan``, a tag test per element and NoK."""
    results = {nok.nok_id: [] for nok in noks}
    for node in SequentialScan(doc, counters, start, stop):
        for nok in noks:
            if nok.root.matches_tag(node.tag):
                entry = matcher_for(nok)(node, counters, {})
                if entry is not None:
                    results[nok.nok_id].append(entry)
    return results


def nids(results):
    """Per NoK, the nids of its matches (each list is the matches of one
    vertex, so its first item tells the representation)."""
    return {nok_id: [getattr(match, "node", match).nid for match in matches]
            for nok_id, matches in results.items()}


def counted(counters):
    return (counters.nodes_scanned, counters.scans_started,
            counters.comparisons, counters.budget_trips)


def ranges(doc, rng):
    n = len(doc.nodes)
    yield 0, None
    for _ in range(6):
        start = rng.randrange(n)
        yield start, rng.randrange(start, n + 3)


def run(scan, noks, doc, counters, start, stop):
    """``(match nids, error class)`` of one scan."""
    try:
        return nids(scan(noks, doc, counters, start, stop)), None
    except (DNFError, QueryCancelledError, QueryTimeoutError) as exc:
        return None, type(exc)


def postings_walk(noks, doc, counters, start, stop):
    return scan_range(noks, doc, counters, None, start, stop, {})


@pytest.fixture(params=["tree", "arena"])
def flavour(request):
    """The walked document as the object tree, or as the column view a
    worker process attaches (the reference always reads the tree)."""
    def view(doc):
        if request.param == "tree":
            return doc
        return DocumentArena.from_buffer(
            DocumentArena.from_document(doc).to_bytes()).document()
    return view


@pytest.mark.parametrize("seed", range(6))
def test_postings_walk_counts_what_the_sequential_dispatch_counts(
        seed, flavour):
    doc = parse(generated_document(seed))
    walked = flavour(doc)
    rng = random.Random(seed)
    for text in ROOT_SETS:
        noks = named_noks(text)
        for start, stop in ranges(doc, rng):
            span = (len(doc.nodes) if stop is None else stop) - start
            for budget in (None, 0, 1, STRIDE - 1, STRIDE, span - 1, span,
                           span + 5):
                for token in (False, True):
                    expect, got = ScanCounters(budget=budget), \
                        ScanCounters(budget=budget)
                    if token:
                        expect.cancellation = CancellationToken(stride=STRIDE)
                        got.cancellation = CancellationToken(stride=STRIDE)
                    where = (seed, text, start, stop, budget, token)
                    assert run(postings_walk, noks, walked, got, start,
                               stop) == \
                        run(sequential_dispatch, noks, doc, expect, start,
                            stop), where
                    assert counted(got) == counted(expect), where
                    if got.budget_trips:
                        assert got.nodes_scanned == budget + 1, where


class CountingToken(CancellationToken):
    checks = 0

    def check(self):
        self.checks += 1
        super().check()


def test_token_is_checked_once_per_stride_charged(flavour):
    doc = parse(generated_document(1))
    walked = flavour(doc)
    noks = named_noks(ROOT_SETS[3])
    rng = random.Random(7)
    expect, got = ScanCounters(), ScanCounters()
    expect.cancellation = CountingToken(stride=STRIDE)
    got.cancellation = CountingToken(stride=STRIDE)
    # The ticks carry over from scan to scan, short ranges included.
    for start, stop in list(ranges(doc, rng)) * 3:
        sequential_dispatch(noks, doc, expect, start, stop)
        postings_walk(noks, walked, got, start, stop)
    assert got.nodes_scanned == expect.nodes_scanned > 10 * STRIDE
    assert got.cancellation.checks == expect.cancellation.checks \
        == got.nodes_scanned // STRIDE


@pytest.mark.parametrize("how", ["cancelled", "expired"])
def test_tripped_token_is_seen_within_one_stride(how, flavour):
    doc = flavour(parse(generated_document(2)))
    (nok,) = named_noks(ROOT_SETS[0])
    assert len(doc.nodes) > 6 * STRIDE
    counters = ScanCounters()
    token = counters.cancellation = CancellationToken(stride=STRIDE)
    seen = []
    compiled = matcher_for(nok)

    def tripping(node, charged, variables):
        if len(seen) == 3:
            if how == "cancelled":
                token.cancel()
            else:
                token.deadline = 0.0
        seen.append(counters.nodes_scanned)
        return compiled(node, charged, variables)
    nok.matcher = tripping
    with pytest.raises(QueryCancelledError if how == "cancelled"
                       else QueryTimeoutError):
        scan_range([nok], doc, counters, None, 0, None, {})
    # Candidates of the stride already charged are still delivered; the
    # next stride's checkpoint ends the scan.
    assert counters.nodes_scanned - seen[3] <= STRIDE
    assert counters.nodes_scanned < len(doc.nodes)


def test_bounded_nested_loop_rescans_count_the_same(flavour):
    doc = parse(generated_document(3))
    walked = flavour(doc)
    dec = prepare_artifacts(compile_query("//a//b[c]").tree).decomposition
    edge = next(e for e in dec.inter_edges if e.parent.name == "a")
    inner = dec.noks[edge.nok_to]
    outers = [node for node in doc.nodes if node.tag == "a"]
    assert len(outers) > 20
    right = NoKMatcher(inner, walked, variables={}).matches()
    for budget in (None, 40, 10 ** 6):
        expect, got = ScanCounters(budget=budget), ScanCounters(budget=budget)
        expect.cancellation = CancellationToken(stride=STRIDE)
        got.cancellation = CancellationToken(stride=STRIDE)
        pairs: dict = {}
        try:
            for outer in outers:
                expect.cancellation.checkpoint()
                found = sequential_dispatch(
                    [inner], doc, expect, outer.nid + 1,
                    outer.nid + outer.subtree_size())[inner.nok_id]
                if found:
                    pairs[outer.nid] = nids({0: found})[0]
        except DNFError:
            pairs = None
        try:
            joined = bounded_nested_loop_join(
                [walked.nodes[o.nid] for o in outers], right, inner, walked,
                edge, got, variables={})
            joined = nids({nid: joined.right[lo:hi]
                           for nid, (lo, hi) in joined.ranges.items()})
        except DNFError:
            joined = None
        assert joined == pairs, budget
        assert (pairs is None) == (budget == 40)
        assert counted(got) == counted(expect), budget


# ----------------------------------------------------------------------
# The range join's charge: two bisects per left node, nothing per pair,
# one token check, no buffer — on flat and on recursive input alike.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("xml", [
    "<r><a><b/><c><b/></c></a><a><x/></a><a><b/></a></r>",
    "<r><a><a><b/><a><b/><b/></a></a><b/></a><a><b/></a><b/></r>",
])
@pytest.mark.parametrize("text", ["//a//b", "//*//b"])
def test_range_join_charges_two_comparisons_per_left_node(xml, text):
    doc = parse(xml)
    dec = prepare_artifacts(compile_query(text).tree).decomposition
    edge = next(e for e in dec.inter_edges if e.parent.name != "#root")
    left = left_projection(NoKMatcher(dec.noks[edge.nok_from], doc,
                                      variables={}).matches(), edge)
    right = NoKMatcher(dec.noks[edge.nok_to], doc, variables={}).matches()
    counters = ScanCounters()
    counters.cancellation = CountingToken(stride=1 << 30)
    joined = stack_desc_join(left, right, edge, counters)
    assert joined.pairs and len(left) > 2
    assert counters.comparisons == 2 * len(left)
    assert counters.cancellation.checks == 1
    assert counters.peak_buffered == 0
    assert counters.snapshot() == {**ScanCounters().snapshot(),
                                   "comparisons": 2 * len(left)}


def test_single_nok_matcher_walks_postings_too(flavour):
    doc = parse(generated_document(4))
    walked = flavour(doc)
    for text in ROOT_SETS[:2]:
        (nok,) = named_noks(text)
        expect, got = ScanCounters(), ScanCounters()
        reference = sequential_dispatch([nok], doc, expect, 5, 90)
        matches = NoKMatcher(nok, walked, got, 5, 90, variables={}).matches()
        assert nids({0: matches})[0] == nids(reference)[nok.nok_id]
        assert counted(got) == counted(expect)


def test_a_document_version_builds_its_postings_once():
    from repro.obs.metrics import REGISTRY

    builds = REGISTRY.get("repro_tag_index_builds_total")
    doc = parse(generated_document(5))
    before = builds.value()
    noks = named_noks(ROOT_SETS[3])
    for start, stop in ((0, None), (10, 50), (3, 4)):
        scan_range(noks, doc, ScanCounters(), None, start, stop, {})
    assert builds.value() == before + 1
    # A wildcard root reads no postings at all.
    fresh = parse(generated_document(5))
    scan_range(named_noks("for $x in //*, $y in //a return $x"), fresh,
               ScanCounters(), None, 0, None, {})
    assert builds.value() == before + 1


# ----------------------------------------------------------------------
# The representation contract: a match is an ``NLEntry`` only where
# Figure 6 has a child pointer to fill — a returning child under an
# uncut edge; every other vertex's match is its node.  What the match
# phase builds is what a query keeps alive until its finish.
# ----------------------------------------------------------------------

from collections import Counter  # noqa: E402
from functools import partial  # noqa: E402

from repro.algebra.nested_list import NLEntry, no_groups  # noqa: E402
from repro.algebra.operators import select  # noqa: E402
from repro.datagen import DATASETS  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.backend import ExecutionBackend  # noqa: E402
from repro.physical.nok_merge import merged_scan  # noqa: E402
from repro.physical.parallel_scan import (  # noqa: E402
    ScanPools, parallel_merged_scan)
from repro.physical.process_scan import (  # noqa: E402
    _decode_match_list, _encode_match_list)
from repro.xmlkit.partition import partition_document  # noqa: E402
from repro.xmlkit.tree import Node  # noqa: E402

#: Four ``book`` candidates, three with an ``author``; five ``title``s.
#: (``title`` is the last pattern child in every query below.)
SHELF = ("<lib><book><author>a</author><title>t1</title></book>"
         "<book><title>t2</title></book>"
         "<book><author>b</author><author>c</author>"
         "<title>t3</title><title>t4</title></book>"
         "<shelf><book><author>d</author><title>t5</title></book></shelf>"
         "</lib>")


def has_slot_to_fill(vertex):
    """Figure 6's rule, restated from the pattern: a returning child
    under an uncut edge."""
    return any(edge.child.returning and not edge.cut
               for edge in vertex.child_edges)


def layout(vertex, match):
    """A match of ``vertex`` as plain data, asserting the vertex's
    representation all the way down: the nid of a node where no slot
    can be filled; else an entry, as ``(nid, "shared")`` when it holds
    the shared empty groups of its width, or ``(nid, slots)`` with per
    slot ``()`` or the list of its matches' layouts."""
    assert vertex.grouped == has_slot_to_fill(vertex)
    if not vertex.grouped:
        assert isinstance(match, Node), (vertex, match)
        return match.nid
    assert type(match) is NLEntry and match.vertex.vid == vertex.vid
    if match.groups is no_groups(len(vertex.child_edges)):
        return match.node.nid, "shared"
    assert isinstance(match.groups, list) and any(match.groups)
    slots = []
    for group, edge in zip(match.groups, vertex.child_edges, strict=True):
        if group == ():
            slots.append(())
            continue
        assert isinstance(group, list) and group
        assert edge.child.returning and not edge.cut
        slots.append([layout(edge.child, sub) for sub in group])
    return match.node.nid, tuple(slots)


def layouts(nok, matches):
    return [layout(nok.root, match) for match in matches]


def titles_of(books):
    return [[title.string_value() for title in book.groups[-1]]
            for book in books]


@pytest.fixture
def built(monkeypatch):
    """``NLEntry`` constructions by vertex name, wherever they happen
    (matcher, σ, twin relabel, process decoder)."""
    counts: Counter = Counter()
    init = NLEntry.__init__

    def counting(self, vertex, node, groups):
        counts[vertex.name] += 1
        init(self, vertex, node, groups)
    monkeypatch.setattr(NLEntry, "__init__", counting)
    return counts


def test_leaf_matches_are_their_nodes():
    """``//book/title``: ``book`` has a slot to fill, ``title`` none —
    a ``title`` match is the ``title`` node itself, in its group."""
    doc = parse(SHELF)
    (nok,) = named_noks("for $t in //book/title return $t")
    title = nok.root.children()[0]
    assert nok.root.grouped and not title.grouped
    books = scan_range([nok], doc, ScanCounters(), None, 0, None, {})[
        nok.nok_id]
    leaves = [leaf for book in books for leaf in book.groups[0]]
    assert leaves == doc.elements_by_tag("title")
    # σ copies an entry and shares the nodes below it.
    kept = select(books, nok.root, title,
                  lambda node: node.string_value() != "t3")
    assert titles_of(kept) == [["t1"], ["t2"], ["t4"], ["t5"]]
    assert all(leaf in leaves for book in kept for leaf in book.groups[0])
    # The process-scan wire format decodes leaves onto the nodes.
    decoded = _decode_match_list(
        nok.root, _encode_match_list(nok.root, books), doc.nodes)
    assert layouts(nok, decoded) == layouts(nok, books)


def test_twin_relabel_copies_leaves_without_recursing():
    """A grouped twin's entries are relabelled onto its own vertices; a
    group of nodes names no vertex, so the twins share it."""
    doc = parse(SHELF)
    noks = named_noks("for $a in //book/title, $b in //book/title "
                      "return $a")
    first, twin = noks
    assert twin.twin_of == first.nok_id
    results = merged_scan(noks, doc, variables={})
    original, relabelled = results[first.nok_id], results[twin.nok_id]
    assert layouts(twin, relabelled) == layouts(first, original)
    for book, twin_book in zip(original, relabelled, strict=True):
        assert twin_book is not book and twin_book.vertex is twin.root
        assert twin_book.groups[0] is book.groups[0]
    # σ on one twin's list leaves the other's whole.
    before = layouts(first, original)
    assert select(relabelled, twin.root, twin.root.children()[0],
                  lambda node: False) == []
    assert layouts(first, original) == before


def test_flat_twins_share_nodes_and_sigma_leaves_the_other_whole():
    doc = parse(SHELF)
    first, twin = named_noks("for $a in //book[author], $b in "
                             "//book[author] return $a")
    assert twin.twin_of == first.nok_id and not first.root.grouped
    results = merged_scan([first, twin], doc, variables={})
    original, copied = results[first.nok_id], results[twin.nok_id]
    assert original == copied == [
        b for b in doc.elements_by_tag("book") if b.children[0].tag == "author"]
    assert original is not copied
    assert select(copied, twin.root, twin.root,
                  lambda node: node is original[0]) == original[:1]
    assert len(results[first.nok_id]) == 3


def test_match_phase_builds_no_entry_for_an_existential_leaf(built):
    """On ``//book[author]/title`` the scan builds one entry per
    ``book`` that matches, none for the existential ``author``, none
    for the ``book`` without one, and none for a ``title``: its match
    is its node.

    Counter contract (ROADMAP item 5): charging does not change — the
    ``comparisons`` literal is what the matcher that called a child
    matcher per ``author`` counted."""
    doc = parse(SHELF)
    (nok,) = named_noks("for $t in //book[author]/title return $t")
    counters = ScanCounters()
    books = scan_range([nok], doc, counters, None, 0, None, {})[nok.nok_id]
    assert titles_of(books) == [["t1"], ["t3", "t4"], ["t5"]]
    assert built == {"book": 3}
    assert counters.comparisons == 9  # 4 authors + 5 titles offered


# ----------------------------------------------------------------------
# The Figure-6 layout: a slot gets a list only when a match goes in.
# ----------------------------------------------------------------------

def test_cut_and_existential_slots_share_the_empty_groups():
    """``book`` has an existential ``author`` slot, a cut ``//title``
    slot and an optional ``price`` one: no ``book`` entry fills any
    (none has a price), so all of them hold the one shared groups tuple
    of width 3 — no list per entry or per slot.  Without ``price`` no
    slot can be filled at all: a ``book`` match is its node."""
    doc = parse(SHELF)
    noks = named_noks("for $b in //book[author], $t in $b//title "
                      "let $p := $b/price return $t")
    book = next(nok for nok in noks if nok.root.name == "book")
    assert [(edge.child.name, edge.cut) for edge in book.root.child_edges] \
        == [("author", False), ("title", True), ("price", False)]
    books = scan_range([book], doc, ScanCounters(), None, 0, None, {})[
        book.nok_id]
    assert len(books) == 3
    assert all(entry.groups is no_groups(3) for entry in books)

    noks = named_noks("for $b in //book[author], $t in $b//title return $t")
    book = next(nok for nok in noks if nok.root.name == "book")
    assert not book.root.grouped
    assert scan_range([book], doc, ScanCounters(), None, 0, None, {})[
        book.nok_id] == [entry.node for entry in books]


def test_only_filled_slots_get_a_list():
    """``//book[author]/title``: ``title`` is returning, ``author``
    existential — the ``title`` slot is a list, the ``author`` slot the
    shared ``()``."""
    doc = parse(SHELF)
    (nok,) = named_noks("for $t in //book[author]/title return $t")
    books = scan_range([nok], doc, ScanCounters(), None, 0, None, {})[
        nok.nok_id]
    for entry in books:
        assert isinstance(entry.groups, list)
        assert entry.groups[0] == () and isinstance(entry.groups[1], list)


@pytest.mark.parametrize("text", [
    "for $t in //book[author]/title return $t",
    "for $b in //book[author/following-sibling::title] return $b",
])
def test_a_candidate_failing_its_checks_builds_no_entry(built, text):
    """The book without an ``author`` (and, with the sibling rule, the
    one whose ``title`` precedes its ``author``) is rejected before any
    entry exists: one entry per ``book`` that matched, none else — and
    none at all where ``book`` has no slot to fill."""
    doc = parse(SHELF.replace("<book><author>d</author><title>t5</title>",
                              "<book><title>t5</title><author>d</author>"))
    (nok,) = named_noks(text)
    books = scan_range([nok], doc, ScanCounters(), None, 0, None, {})[
        nok.nok_id]
    assert len(books) == (3 if "following" not in text else 2)
    assert built["book"] == (len(books) if nok.root.grouped else 0)
    layouts(nok, books)


def test_select_returns_untouched_entries_and_never_mutates():
    """σ returns an entry nothing under which changed itself; a copy is
    made only for an entry whose group lost a member, and it shares
    every group it did not change; the input is never mutated."""
    doc = parse("<r><a><b>1</b><b>2</b><c/></a><a><b>3</b><c/></a></r>")
    noks = named_noks("for $a in //a, $b in $a/b, $c in $a/c return $b")
    (nok,) = noks
    entries = scan_range([nok], doc, ScanCounters(), None, 0, None, {})[
        nok.nok_id]
    a_vertex = nok.root
    b_vertex = a_vertex.child_edges[0].child
    before = layouts(nok, entries)
    kept = select(entries, a_vertex, b_vertex, lambda node: True)
    assert all(out is entry for out, entry in zip(kept, entries, strict=True))
    # One b of the first a fails: that a is copied, the second is not.
    kept = select(entries, a_vertex, b_vertex,
                  lambda node: node.string_value() != "2")
    assert kept[0] is not entries[0] and kept[1] is entries[1]
    assert kept[0].groups[0] == [entries[0].groups[0][0]]
    assert kept[0].groups[1] is entries[0].groups[1]     # the c group
    # Every b of the second a fails, and b is mandatory: it leaves.
    kept = select(entries, a_vertex, b_vertex,
                  lambda node: node.string_value() != "3")
    assert kept == [entries[0]]
    assert layouts(nok, entries) == before


@pytest.fixture(scope="module")
def pools():
    owned = ScanPools(thread_workers=2, process_workers=2)
    yield owned
    owned.close(wait=True)


def test_process_decoder_yields_the_serial_layout(pools):
    """The wire format round-trips every representation, and both
    partitioned drivers hand back the serial scan's, match for match."""
    doc = parse(SHELF)
    cut = partial(partition_document, min_nodes=1)
    for text in ("for $t in //book[author]/title return $t",
                 "for $b in //book[author], $t in $b//title return $t",
                 "for $b in //book[author], $t in $b//title "
                 "let $p := $b/price return $t",
                 "for $a in //book/title, $b in //book/title return $a"):
        noks = named_noks(text)
        serial = merged_scan(noks, doc, variables={})
        for nok in noks:
            want = layouts(nok, serial[nok.nok_id])
            decoded = _decode_match_list(
                nok.root, _encode_match_list(nok.root, serial[nok.nok_id]),
                doc.nodes)
            assert layouts(nok, decoded) == want, text
        for driver in ("threads", "processes"):
            parallel = parallel_merged_scan(
                noks, doc, variables={}, pools=pools,
                backend=ExecutionBackend(driver, 3),
                partitions=cut(doc, 3))
            for nok in noks:
                assert layouts(nok, parallel[nok.nok_id]) == \
                    layouts(nok, serial[nok.nok_id]), (text, driver)


# ----------------------------------------------------------------------
# The representation over Table 3: entries only where a slot can be
# filled, and the same counters the all-entry representation charged.
# ----------------------------------------------------------------------

#: Per dataset and strategy, over its six Appendix-A paths at scale
#: 0.05: ``comparisons``, ``nodes_scanned``, ``intermediate_results``,
#: ``peak_buffered``, bind tuples, finish survivors and items — the
#: figures the representation with an entry per match produced.  The
#: joins' share is the range join's: two ``comparisons`` per left node
#: and no ``peak_buffered``.
TABLE3_COUNTERS = {
    ("d1", "auto"): (2979, 2404, 1642, 0, 419, 419, 419),
    ("d1", "stack"): (2979, 2404, 1642, 0, 419, 419, 419),
    ("d2", "auto"): (768, 1440, 495, 0, 138, 138, 138),
    ("d2", "stack"): (768, 1440, 495, 0, 138, 138, 138),
    ("d3", "auto"): (593, 3765, 274, 0, 179, 179, 179),
    ("d3", "stack"): (593, 3765, 274, 0, 179, 179, 179),
    ("d4", "auto"): (1909, 6894, 1271, 0, 322, 322, 322),
    ("d4", "stack"): (1909, 6894, 1271, 0, 322, 322, 322),
    ("d5", "auto"): (94, 6052, 355, 0, 14, 14, 14),
    ("d5", "stack"): (94, 6052, 355, 0, 14, 14, 14),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_table3_builds_entries_only_where_a_slot_can_be_filled(
        name, monkeypatch):
    slotted: Counter = Counter()
    init = NLEntry.__init__

    def counting(self, vertex, node, groups):
        slotted[has_slot_to_fill(vertex)] += 1
        init(self, vertex, node, groups)
    monkeypatch.setattr(NLEntry, "__init__", counting)
    dataset = DATASETS[name]
    doc = dataset.generate(scale=0.05)
    assert len(dataset.queries) == 6
    for spec in dataset.queries:
        noks = prepare_artifacts(compile_query(spec.text).tree
                                 ).decomposition.noks
        matches = merged_scan(noks, doc, variables={})
        for nok in noks:
            layouts(nok, matches[nok.nok_id])
    engine = Engine(doc)
    for strategy in ("auto", "stack"):
        totals = [0] * 7
        for spec in dataset.queries:
            result = engine.query(spec.text, strategy=strategy, trace=True)
            bind = result.trace.find("bind-phase")
            finish = result.trace.find("finish-phase")
            for at, value in enumerate((
                    result.counters.comparisons,
                    result.counters.nodes_scanned,
                    result.counters.intermediate_results,
                    result.counters.peak_buffered,
                    bind.attrs["tuples"] if bind else 0,
                    finish.attrs["surviving"] if finish else 0,
                    len(result))):
                totals[at] += value
        assert tuple(totals) == TABLE3_COUNTERS[name, strategy], strategy
    assert slotted[False] == 0
