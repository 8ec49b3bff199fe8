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
    construction by reference still makes: on navigation only (an
    update edits a fork and copies nothing out), never the oracle's
    eager copies.  Its consumer is the copy-count contract in
    ``tests/test_construct_by_reference.py``: a serialize-only run
    counts 0, navigating one result root counts 1, navigating it again
    still 1, a naive run counts 0, an update counts 0."""
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
from repro.physical.nok import (NoKMatcher, matcher_for,  # noqa: E402
                                scan_range)
from repro.physical.stack_join import stack_desc_join  # noqa: E402
from repro.physical.structural import left_projection  # noqa: E402
from repro.xmlkit import parse  # noqa: E402
from repro.xmlkit.arena import DocumentArena  # noqa: E402
from repro.xmlkit.storage import (CancellationToken,  # noqa: E402
                                  SequentialScan)
from repro.xmlkit.tree import ELEMENT  # noqa: E402

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


def sequential_dispatch(noks, doc, counters, start=0, stop=None,
                        groups=None):
    """The loop the postings walk replaced: every slot of the range
    through ``SequentialScan``, a tag test per element and NoK, and the
    NoK's batch run on that one node."""
    results = {nok.nok_id: [] for nok in noks}
    groups = {} if groups is None else groups
    for node in SequentialScan(doc, counters, start, stop):
        for nok in noks:
            if nok.root.matches_tag(node.tag):
                results[nok.nok_id] += matcher_for(nok)([node], counters, {},
                                                        groups)
    return results


def nids(results):
    """Per NoK, the nids of its root matches."""
    return {nok_id: [match.nid for match in matches]
            for nok_id, matches in results.items()}


def table_nids(groups):
    """The non-empty run tables as nids: vid -> parent nid -> run nids."""
    return {vid: {parent.nid: [node.nid for node in run]
                  for parent, run in table.items()}
            for vid, table in groups.items() if table}


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
    """``(root nids, table nids, error class)`` of one scan."""
    groups = {}
    try:
        roots = nids(scan(noks, doc, counters, start, stop, groups))
        return roots, table_nids(groups), None
    except (DNFError, QueryCancelledError, QueryTimeoutError) as exc:
        return None, None, type(exc)


def postings_walk(noks, doc, counters, start, stop, groups=None):
    return scan_range(noks, doc, counters, None, start, stop, {}, groups)


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


#: Texts for the chunk-invariance property beyond ``ROOT_SETS``: a
#: grouped root, a following-sibling chain, a ``*`` after a named edge
#: and a late-bound test.
SPLIT_TEXTS = [
    "for $x in //a, $y in $x/b, $z in $x/c return $y",
    "for $x in //a[b/following-sibling::c] return $x",
    "for $x in //b, $y in $x/*, $z in $x/a return $y",
    "for $x in //a where $x/b < $p return $x",
]


@pytest.mark.parametrize("seed", range(6))
def test_a_batch_is_the_concatenation_of_its_splits(seed):
    """Theorem 1 for the batch: a NoK's batch over its whole candidate
    list equals the concatenation of its batches over a random split of
    that list — the same matches, the same run tables merged with
    ``dict.update`` (no two splits share a parent) and the same counters
    — so no state leaks between candidates or between parents."""
    from repro.algebra.nested_list import sexpr
    from tests.test_xpath_compile import MATCH_CASES, MATCH_DOC

    rng = random.Random(f"split:{seed}")
    for xml in (generated_document(seed), MATCH_DOC):
        doc = parse(xml)
        for text in ROOT_SETS + SPLIT_TEXTS + list(MATCH_CASES):
            for nok in named_noks(text):
                candidates = [node for node in doc.nodes
                              if node.kind == ELEMENT
                              and nok.root.matches_tag(node.tag)]
                batch = matcher_for(nok)
                variables = {"p": float(rng.randint(0, 3))}
                whole_counters, split_counters = ScanCounters(), \
                    ScanCounters()
                whole_groups, merged = {}, {}
                whole = batch(candidates, whole_counters, variables,
                              whole_groups)
                cuts = sorted(rng.randrange(len(candidates) + 1)
                              for _ in range(rng.randint(1, 4)))
                split = []
                for lo, hi in zip([0, *cuts], [*cuts, len(candidates)]):
                    groups = {}
                    split += batch(candidates[lo:hi], split_counters,
                                   variables, groups)
                    for vid, table in groups.items():
                        assert not table.keys() & merged.get(vid, {}).keys()
                        merged.setdefault(vid, {}).update(table)
                assert split == whole, (seed, text)
                assert table_nids(merged) == table_nids(whole_groups), \
                    (seed, text)
                assert [sexpr(match, nok.root, merged) for match in split] \
                    == [sexpr(match, nok.root, whole_groups)
                        for match in whole], (seed, text)
                assert split_counters.snapshot() == \
                    whole_counters.snapshot(), (seed, text)


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

    def tripping(nodes, charged, variables, groups):
        if len(seen) == 3:
            if how == "cancelled":
                token.cancel()
            else:
                token.deadline = 0.0
        seen.append(counters.nodes_scanned)
        return compiled(nodes, charged, variables, groups)
    nok.matcher = tripping
    with pytest.raises(QueryCancelledError if how == "cancelled"
                       else QueryTimeoutError):
        scan_range([nok], doc, counters, None, 0, None, {})
    # The batch of the stride already charged is still run; the next
    # stride's checkpoint ends the scan.
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
    outer = NoKMatcher(dec.noks[edge.nok_from], doc, variables={})
    left = left_projection(outer.matches(), edge, outer.groups)
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
# The representation contract (Figure 6): every match is its node, and
# only a vertex returning under an uncut edge has a run table — one per
# execution, present once a run is filled, parent match -> its non-empty
# run.  What the
# match phase builds is what a query keeps alive until its finish.
# ----------------------------------------------------------------------

from functools import partial  # noqa: E402

from repro.algebra.nested_list import sexpr  # noqa: E402
from repro.algebra.operators import select  # noqa: E402
from repro.datagen import DATASETS  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.backend import ExecutionBackend  # noqa: E402
from repro.physical.nok_merge import merged_scan  # noqa: E402
from repro.physical.parallel_scan import (  # noqa: E402
    ScanPools, parallel_merged_scan)
from repro.physical.process_scan import (  # noqa: E402
    _decode_table, _encode_table)
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


def has_table(vertex):
    """Figure 6's rule, restated from the pattern: returning, under an
    uncut edge."""
    edge = vertex.parent_edge
    return vertex.returning and edge is not None and not edge.cut


def layout(vertex, node, groups):
    """A match of ``vertex`` as plain data, asserting the representation
    all the way down: the nid where no child of ``vertex`` has a table;
    else ``(nid, slots)`` with per child ``()`` (no run) or the list of
    its run's layouts."""
    assert isinstance(node, Node), (vertex, node)
    slots = []
    for edge in vertex.child_edges:
        child = edge.child
        run = groups.get(child.vid, {}).get(node)
        if run is None:
            slots.append(())
            continue
        assert has_table(child) and type(run) is list and run, child
        slots.append([layout(child, sub, groups) for sub in run])
    if not any(has_table(edge.child) for edge in vertex.child_edges):
        return node.nid
    return node.nid, tuple(slots)


def layouts(nok, roots, groups):
    """The NoK's NestedLists (root list and tables) as plain data; a
    table that is present belongs to a vertex that may have one and
    holds non-empty runs only."""
    for vertex in nok.vertices:
        table = groups.get(vertex.vid)
        if table is not None:
            assert has_table(vertex), vertex
            assert all(type(run) is list and run for run in table.values())
    return [layout(nok.root, node, groups) for node in roots]


def contents(groups):
    """Every table's content, copied (to see a mutation in place)."""
    return {vid: {parent: list(run) for parent, run in table.items()}
            for vid, table in groups.items()}


def scanned(text, xml=SHELF):
    """The named NoKs of ``text`` scanned over ``xml``: (doc, noks,
    root lists, tables)."""
    doc = parse(xml)
    noks = named_noks(text)
    groups = {}
    return doc, noks, merged_scan(noks, doc, variables={}, groups=groups), \
        groups


def test_leaf_matches_are_their_nodes():
    """``//book/title``: a ``title`` match is the ``title`` node itself,
    in its run under its ``book``; so is a ``book`` match."""
    doc, (nok,), results, groups = scanned("for $t in //book/title return $t")
    title = nok.root.children()[0]
    assert set(groups) == {title.vid}
    books = results[nok.nok_id]
    assert books == doc.elements_by_tag("book")
    table = groups[title.vid]
    leaves = [leaf for book in books for leaf in table[book]]
    assert leaves == doc.elements_by_tag("title")
    # σ replaces the table and shares the runs it did not change.
    kept = select(books, groups, nok.root, title,
                  lambda node: node.string_value() != "t3")
    assert kept is books and groups[title.vid] is not table
    assert [[t.string_value() for t in groups[title.vid][b]] for b in kept] \
        == [["t1"], ["t2"], ["t4"], ["t5"]]
    assert all(groups[title.vid][b] is table[b] for b in books if b is not
               books[2])
    # The process-scan wire format decodes runs onto the nodes.
    assert _decode_table(_encode_table(table), doc.nodes) == table


def test_twin_tables_are_shared_and_sigma_leaves_the_other_whole():
    """A twin gets a copy of the first's root list and the first's
    tables under its own vertices; σ on the twin replaces the twin's
    tables and leaves the first's root list, tables and runs as they
    were — the same objects with the same content."""
    doc, noks, results, groups = scanned(
        "for $a in //book/title, $b in //book/title return $a")
    first, twin = noks
    assert twin.twin_of == first.nok_id
    original, copied = results[first.nok_id], results[twin.nok_id]
    assert copied == original and copied is not original
    assert layouts(twin, copied, groups) == layouts(first, original, groups)
    title, twin_title = first.root.children()[0], twin.root.children()[0]
    table = groups[title.vid]
    assert groups[twin_title.vid] is table
    runs, before = dict(table), contents(groups)
    for predicate in (lambda node: node.string_value() != "t3",
                      lambda node: False):
        reduced = select(copied, groups, twin.root, twin_title, predicate)
        assert results[first.nok_id] is original
        assert groups[title.vid] is table
        assert all(table[book] is run for book, run in runs.items())
        assert contents({title.vid: table}) == {title.vid: before[title.vid]}
        assert original == doc.elements_by_tag("book")
        groups[twin_title.vid] = table      # undo for the next predicate
    assert reduced == []


def test_flat_twins_share_nodes_and_sigma_leaves_the_other_whole():
    doc, (first, twin), results, groups = scanned(
        "for $a in //book[author], $b in //book[author] return $a")
    assert twin.twin_of == first.nok_id and groups == {}
    original, copied = results[first.nok_id], results[twin.nok_id]
    assert original == copied == [
        b for b in doc.elements_by_tag("book") if b.children[0].tag == "author"]
    assert original is not copied
    assert select(copied, groups, twin.root, twin.root,
                  lambda node: node is original[0]) == original[:1]
    assert len(results[first.nok_id]) == 3


def test_match_phase_builds_no_entry_for_an_existential_leaf():
    """On ``//book[author]/title`` the scan keeps one ``book`` per match,
    a run of ``title``s per kept ``book`` and no table for the
    existential ``author``.

    Counter contract (ROADMAP item 5): charging does not change — the
    ``comparisons`` literal is what the matcher that called a child
    matcher per ``author`` counted."""
    doc = parse(SHELF)
    (nok,) = named_noks("for $t in //book[author]/title return $t")
    author, title = nok.root.children()
    counters, groups = ScanCounters(), {}
    books = scan_range([nok], doc, counters, None, 0, None, {}, groups)[
        nok.nok_id]
    assert set(groups) == {title.vid} and not has_table(author)
    assert [[t.string_value() for t in groups[title.vid][b]]
            for b in books] == [["t1"], ["t3", "t4"], ["t5"]]
    assert counters.comparisons == 9  # 4 authors + 5 titles offered


# ----------------------------------------------------------------------
# The Figure-6 layout: a table only where a run can be filled.
# ----------------------------------------------------------------------

def test_cut_and_existential_slots_share_the_empty_groups():
    """``book`` has an existential ``author`` child, a cut ``//title``
    one and an optional ``price`` one: only ``price`` may have a table,
    and it has none, since no book has a price — no list per book or
    per slot.  Without ``price`` the NoK cannot have a table at all."""
    noks = named_noks("for $b in //book[author], $t in $b//title "
                      "let $p := $b/price return $t")
    book = next(nok for nok in noks if nok.root.name == "book")
    assert [(edge.child.name, edge.cut) for edge in book.root.child_edges] \
        == [("author", False), ("title", True), ("price", False)]
    price = book.root.child_edges[2].child
    doc, groups = parse(SHELF), {}
    books = scan_range([book], doc, ScanCounters(), None, 0, None, {},
                       groups)[book.nok_id]
    assert has_table(price) and len(books) == 3 and groups == {}
    assert [sexpr(b, book.root, groups) for b in books] == \
        ["(book,(),(),())"] * 3

    noks = named_noks("for $b in //book[author], $t in $b//title return $t")
    book = next(nok for nok in noks if nok.root.name == "book")
    groups = {}
    assert scan_range([book], doc, ScanCounters(), None, 0, None, {},
                      groups)[book.nok_id] == books
    assert groups == {}


def test_only_filled_slots_get_a_list():
    """``//book[author]/title``: ``title`` is returning, ``author``
    existential — each kept ``book`` has its own ``title`` run, and
    ``author`` has no table."""
    doc, (nok,), results, groups = scanned(
        "for $t in //book[author]/title return $t")
    author, title = nok.root.children()
    assert author.vid not in groups
    runs = list(groups[title.vid].values())
    assert len(runs) == len(results[nok.nok_id]) == 3
    assert all(type(run) is list and run for run in runs)
    assert len({id(run) for run in runs}) == 3


@pytest.mark.parametrize("text", [
    "for $t in //book[author]/title return $t",
    "for $b in //book[author/following-sibling::title] return $b",
])
def test_a_candidate_failing_its_checks_builds_no_entry(text):
    """The book without an ``author`` (and, with the sibling rule, the
    one whose ``title`` precedes its ``author``) is rejected: a table
    holds exactly the kept parents that have a non-empty run, so the
    rejected books have none although each has a ``title``."""
    doc, (nok,), results, groups = scanned(text, SHELF.replace(
        "<book><author>d</author><title>t5</title>",
        "<book><title>t5</title><author>d</author>"))
    books = results[nok.nok_id]
    assert len(books) == (3 if "following" not in text else 2)
    title = nok.root.children()[-1]
    if has_table(title):
        assert list(groups[title.vid]) == books
    else:
        assert groups == {}
    layouts(nok, books, groups)


def test_select_returns_untouched_entries_and_never_mutates():
    """σ returns the root list and the tables it did not change
    themselves; a table on the path whose runs changed is replaced by
    one that shares every run it did not change; no table and no run is
    ever mutated."""
    doc, (nok,), results, groups = scanned(
        "for $a in //a, $b in $a/b, $c in $a/c return $b",
        "<r><a><b>1</b><b>2</b><c/></a><a><b>3</b><c/></a></r>")
    roots = results[nok.nok_id]
    a_vertex = nok.root
    b_vertex, c_vertex = a_vertex.children()
    before, tables = contents(groups), dict(groups)
    assert select(roots, groups, a_vertex, b_vertex, lambda n: True) is roots
    assert groups == tables and all(groups[v] is tables[v] for v in tables)
    # One b of the first a fails: the b table is replaced, the second
    # a's run and the c table are shared.
    first, second = roots
    kept = select(roots, groups, a_vertex, b_vertex,
                  lambda node: node.string_value() != "2")
    assert kept is roots
    assert groups[b_vertex.vid] is not tables[b_vertex.vid]
    assert groups[b_vertex.vid][first] == [tables[b_vertex.vid][first][0]]
    assert groups[b_vertex.vid][second] is tables[b_vertex.vid][second]
    assert groups[c_vertex.vid] is tables[c_vertex.vid]
    # Every b of the second a fails, and b is mandatory: it leaves.
    groups = dict(tables)
    kept = select(roots, groups, a_vertex, b_vertex,
                  lambda node: node.string_value() != "3")
    assert kept == [first]
    assert contents(tables) == before


@pytest.fixture(scope="module")
def pools():
    owned = ScanPools(thread_workers=2, process_workers=2)
    yield owned
    owned.close(wait=True)


def test_process_decoder_yields_the_serial_layout(pools):
    """The wire format round-trips every table, and both partitioned
    drivers hand back the serial scan's root lists and tables."""
    doc = parse(SHELF)
    cut = partial(partition_document, min_nodes=1)
    for text in ("for $t in //book[author]/title return $t",
                 "for $b in //book[author], $t in $b//title return $t",
                 "for $b in //book[author], $t in $b//title "
                 "let $p := $b/price return $t",
                 "for $a in //book/title, $b in //book/title return $a"):
        noks = named_noks(text)
        groups = {}
        serial = merged_scan(noks, doc, variables={}, groups=groups)
        decoded = {vid: _decode_table(_encode_table(table), doc.nodes)
                   for vid, table in groups.items()}
        assert decoded == groups, text
        for nok in noks:
            assert layouts(nok, serial[nok.nok_id], decoded) == \
                layouts(nok, serial[nok.nok_id], groups), text
        for driver in ("threads", "processes"):
            shipped = {}
            parallel = parallel_merged_scan(
                noks, doc, variables={}, pools=pools,
                backend=ExecutionBackend(driver, 3),
                partitions=cut(doc, 3), groups=shipped)
            assert table_nids(shipped) == table_nids(groups)
            for nok in noks:
                assert layouts(nok, parallel[nok.nok_id], shipped) == \
                    layouts(nok, serial[nok.nok_id], groups), (text, driver)


# ----------------------------------------------------------------------
# The representation over Table 3: tables only where a run can be
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
def test_table3_builds_entries_only_where_a_slot_can_be_filled(name):
    dataset = DATASETS[name]
    doc = dataset.generate(scale=0.05)
    assert len(dataset.queries) == 6
    for spec in dataset.queries:
        noks = prepare_artifacts(compile_query(spec.text).tree
                                 ).decomposition.noks
        groups = {}
        matches = merged_scan(noks, doc, variables={}, groups=groups)
        assert set(groups) <= {vertex.vid for nok in noks
                               for vertex in nok.vertices
                               if has_table(vertex)}
        assert all(groups.values())
        for nok in noks:
            layouts(nok, matches[nok.nok_id], groups)
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
