"""Ablation A1: merged-NoK single scan vs separate scans (Section 4.2).

The claim: when k NoK operators read the same document, merging them
into one combined operator reduces scan I/O from k passes to one.  We
assert both the exact I/O ratio and identical match output, and
benchmark the two evaluation modes.
"""

import pytest

from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher, merged_scan
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath

from conftest import dataset

#: (dataset, query) pairs whose decomposition yields >= 2 element NoKs.
CASES = [
    ("d3", "//item//street_address"),
    ("d3", "//author[//first_name][//last_name]/name/*"),
    ("d5", "//proceedings[//editor]"),
    ("d2", "//address[//name_of_state][//zip_code]//street_address"),
]


def element_noks(query):
    tree = build_from_path(parse_xpath(query))
    dec = decompose(tree)
    return [n for n in dec.noks if n.root.name != "#root"]


@pytest.mark.parametrize("name,query", CASES)
def test_merged_scan_halves_io(benchmark, name, query):
    def check(name=name, query=query):
        prepared = dataset(name)
        noks = element_noks(query)
        assert len(noks) >= 2

        separate = ScanCounters()
        separate_results = {}
        for nok in noks:
            separate_results[nok.nok_id] = NoKMatcher(
                nok, prepared.doc, separate, variables={}).matches()

        together = ScanCounters()
        merged_results = merged_scan(noks, prepared.doc, together)

        # Exact I/O ratio: k scans vs 1 scan.
        assert separate.nodes_scanned == len(noks) * together.nodes_scanned
        assert together.scans_started == 1
        assert separate.scans_started == len(noks)

        # Identical output.
        for nok in noks:
            assert [m.node.nid for m in merged_results[nok.nok_id]] == \
                [m.node.nid for m in separate_results[nok.nok_id]]



    benchmark.pedantic(check, rounds=1, iterations=1)

@pytest.mark.parametrize("mode", ["separate", "merged"])
def test_scan_mode_timing(benchmark, mode):
    prepared = dataset("d3")
    noks = element_noks("//item//street_address")

    if mode == "separate":
        def run():
            counters = ScanCounters()
            for nok in noks:
                NoKMatcher(nok, prepared.doc, counters, variables={}).matches()
            return counters.nodes_scanned
    else:
        def run():
            counters = ScanCounters()
            merged_scan(noks, prepared.doc, counters)
            return counters.nodes_scanned

    scanned = benchmark(run)
    benchmark.extra_info["nodes_scanned"] = scanned
