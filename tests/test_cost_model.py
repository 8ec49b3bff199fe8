"""Tests for the per-operator estimates ``explain_analyze`` shows."""

import pytest

from repro.datagen import DATASETS
from repro.engine.cost import CostModel
from repro.xmlkit import compute_stats


@pytest.fixture(scope="module")
def flat():
    doc = DATASETS["d2"].generate(scale=0.1)
    return doc, compute_stats(doc, with_size=False)


@pytest.fixture(scope="module")
def deep():
    doc = DATASETS["d4"].generate(scale=0.1)
    return doc, compute_stats(doc, with_size=False)


class TestEstimates:
    def test_recursion_inflates_bnlj(self, flat, deep):
        flat_doc, _ = flat
        deep_doc, _ = deep
        flat_cost, _ = CostModel(flat_doc).edge_estimate(
            "address", "zip_code", "bnlj")
        deep_cost, _ = CostModel(deep_doc).edge_estimate("VP", "NP", "bnlj")
        # per-node rescan volume is far larger on the deep recursive data
        assert deep_cost / len(deep_doc.nodes) > flat_cost / len(flat_doc.nodes)

    def test_pricing_reads_the_histogram_not_the_tag_index(self):
        doc = DATASETS["d2"].generate(scale=0.05)
        model = CostModel(doc)
        model.nok_estimate("address")
        model.edge_estimate("address", "zip_code", "bnlj")
        assert not doc.derived.index.built
        assert model.cardinality("#root") == 1
        for tag in ("address", "zip_code", "absent"):
            assert model.cardinality(tag) == doc.derived.index.cardinality(tag)


class TestExactSubtreeStatistics:
    def test_stats_carry_per_tag_averages(self, flat):
        doc, stats = flat
        # every address subtree: address + ~4 leaf children (+ text)
        avg = stats.avg_subtree_size("address")
        assert 5 <= avg <= 12
        assert stats.avg_subtree_size("unknown_tag") == float(stats.n_nodes)

    def test_leaf_tags_have_small_subtrees(self, flat):
        _, stats = flat
        assert stats.avg_subtree_size("zip_code") <= 3

    def test_model_uses_exact_statistic(self, deep):
        doc, stats = deep
        nodes, _ = CostModel(doc).edge_estimate("VP", "NN", "bnlj")
        # predicted rescan volume = |VP| * avg_subtree(VP)
        expected = stats.tag_histogram["VP"] * stats.avg_subtree_size("VP")
        assert nodes == pytest.approx(expected)
