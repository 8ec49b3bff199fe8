"""Ablation A3: bounded vs naive nested-loop join (Section 4.3).

The BNLJ optimization piggybacks each outer match's subtree range so
the inner NoK re-scans only that range.  The claim: BNLJ's scan I/O is
a small multiple of one document pass, while the naive join scans the
whole document once per outer match.
"""

import pytest

from repro.pattern import build_from_path, decompose
from repro.physical import (
    NoKMatcher,
    bounded_nested_loop_join,
    left_projection,
    naive_nested_loop_join,
)
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath

from conftest import dataset

CASES = [
    ("d2", "//address//zip_code"),
    ("d3", "//item//street_address"),
    ("d5", "//proceedings//editor"),
    ("d1", "//b1//c2"),
]


def join_inputs(prepared, query):
    tree = build_from_path(parse_xpath(query))
    dec = decompose(tree)
    edge = next(e for e in dec.inter_edges if e.parent.name != "#root")
    left = NoKMatcher(dec.noks[edge.nok_from], prepared.doc,
                      variables={}).matches()
    right_nok = dec.noks[edge.nok_to]
    right = NoKMatcher(right_nok, prepared.doc, variables={}).matches()
    return left_projection(left, edge), right, right_nok, edge


@pytest.mark.parametrize("name,query", CASES)
def test_bnlj_beats_naive_io(benchmark, name, query):
    def check(name=name, query=query):
        prepared = dataset(name)
        projection, right, right_nok, edge = join_inputs(prepared, query)
        n_outer = len(projection)
        assert n_outer > 1

        bounded = ScanCounters()
        bnlj = bounded_nested_loop_join(projection, right_nok, prepared.doc,
                                        edge, bounded, variables={})
        naive = ScanCounters()
        nl = naive_nested_loop_join(projection, right_nok, prepared.doc,
                                    edge, naive, variables={})

        # identical output
        assert {k: sorted(e.node.nid for e in v) for k, v in bnlj.adjacency.items()} \
            == {k: sorted(e.node.nid for e in v) for k, v in nl.adjacency.items()}

        # naive scans the whole document per outer node.
        assert naive.nodes_scanned == n_outer * len(prepared.doc.nodes)
        # BNLJ touches only outer subtrees: strictly (and usually vastly) less.
        assert bounded.nodes_scanned < naive.nodes_scanned
        ratio = naive.nodes_scanned / max(1, bounded.nodes_scanned)
        assert ratio > 2.0



    benchmark.pedantic(check, rounds=1, iterations=1)

@pytest.mark.parametrize("variant", ["bnlj", "naive"])
def test_nested_loop_timing(benchmark, variant):
    prepared = dataset("d2")
    projection, right, right_nok, edge = join_inputs(
        prepared, "//address//zip_code")
    join = bounded_nested_loop_join if variant == "bnlj" \
        else naive_nested_loop_join

    def run():
        counters = ScanCounters()
        join(projection, right_nok, prepared.doc, edge, counters,
             variables={})
        return counters.nodes_scanned

    scanned = benchmark(run)
    benchmark.extra_info["nodes_scanned"] = scanned
