"""Ablation A2: pipelined-join memory vs recursion degree (Section 4.2).

The paper (citing Bar-Yossef et al. [3]) argues the memory needed to
evaluate ``//`` joins over recursive input grows with the document's
recursion degree.  We synthesize documents with controlled nesting
depth and measure the peak ancestor-stack size of the stack merge join
(``stack_desc_join``, the paper's "modification with caching
capability"): it must equal the recursion degree, while the strict
pipelined join on flat data stays O(1).
"""

import pytest

from repro.pattern import build_from_path, decompose
from repro.physical import (
    NoKMatcher,
    left_projection,
    pipelined_desc_join,
    stack_desc_join,
)
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath


def nested_document(degree: int, copies: int = 20):
    """`copies` independent chains of `degree` nested <a>'s, each with
    a <b/> at the deepest level."""
    chain = "<a>" * degree + "<b/>" + "</a>" * degree
    return parse("<r>" + chain * copies + "</r>")


def join_inputs(doc):
    tree = build_from_path(parse_xpath("//a//b"))
    dec = decompose(tree)
    edge = next(e for e in dec.inter_edges if e.parent.name == "a")
    left = NoKMatcher(dec.noks[edge.nok_from], doc, variables={}).matches()
    right = NoKMatcher(dec.noks[edge.nok_to], doc, variables={}).matches()
    return left_projection(left, edge), right, edge


@pytest.mark.parametrize("degree", [1, 2, 4, 8, 16])
def test_caching_join_memory_equals_degree(benchmark, degree):
    def check():
        doc = nested_document(degree)
        projection, right, edge = join_inputs(doc)
        counters = ScanCounters()
        result = stack_desc_join(projection, right, edge, counters)
        assert counters.peak_buffered == degree
        # every b joins with all `degree` enclosing a's
        assert result.pair_count() == degree * 20
        return counters.peak_buffered

    peak = benchmark.pedantic(check, rounds=1, iterations=1)
    benchmark.extra_info["peak_buffered"] = peak


def test_strict_pipelined_is_constant_memory(benchmark):
    def check():
        doc = nested_document(1, copies=200)
        projection, right, edge = join_inputs(doc)
        counters = ScanCounters()
        pipelined_desc_join(projection, right, edge, counters)
        assert counters.peak_buffered <= 1

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.parametrize("degree", [2, 8, 16])
def test_caching_join_timing(benchmark, degree):
    doc = nested_document(degree, copies=50)
    projection, right, edge = join_inputs(doc)

    def run():
        counters = ScanCounters()
        stack_desc_join(projection, right, edge, counters)
        return counters.peak_buffered

    peak = benchmark(run)
    benchmark.extra_info["recursion_degree"] = degree
    benchmark.extra_info["peak_buffered"] = peak
