"""Ablation A7: PathStack vs TwigStack on chain queries (reference [7]).

Both holistic joins read the same index streams; on pure //-chains
(the "c" categories of Table 2) PathStack needs no path-merge phase,
so it should match TwigStack's I/O with simpler bookkeeping and at
most comparable time.
"""

import pytest

from repro.pattern import build_from_path
from repro.physical import PathStackOperator, TwigStackOperator, chain_supported
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath

from conftest import dataset

CHAINS = [
    ("d1", "//b1//c2//b1"),
    ("d1", "//a//c2//c3"),
    ("d4", "//VP//NP//NN"),
    ("d4", "//S//VP//NP"),
    ("d5", "//phdthesis//author"),
]


@pytest.mark.parametrize("name,query", CHAINS)
def test_results_identical(name, query):
    prepared = dataset(name)
    tree = build_from_path(parse_xpath(query))
    assert chain_supported(tree)
    output = tree.var_vertex["#result"]

    path_counters = ScanCounters()
    path_nodes = PathStackOperator(tree, prepared.doc,
                                   counters=path_counters).matching_nodes(output)

    tree2 = build_from_path(parse_xpath(query))
    twig_counters = ScanCounters()
    twig_nodes = TwigStackOperator(tree2, prepared.doc,
                                   counters=twig_counters).matching_nodes(
        tree2.var_vertex["#result"])

    assert [n.nid for n in path_nodes] == [n.nid for n in twig_nodes]
    # Identical index I/O: both read exactly the tag streams.
    assert path_counters.nodes_scanned == twig_counters.nodes_scanned


@pytest.mark.parametrize("operator", ["pathstack", "twigstack"])
@pytest.mark.parametrize("name,query", CHAINS[:3])
def test_chain_join_timing(benchmark, operator, name, query):
    prepared = dataset(name)

    def run():
        tree = build_from_path(parse_xpath(query))
        cls = PathStackOperator if operator == "pathstack" else TwigStackOperator
        op = cls(tree, prepared.doc)
        return len(op.matching_nodes(tree.var_vertex["#result"]))

    count = benchmark(run)
    benchmark.extra_info["n_results"] = count
