"""Tests for the Section-6 cost model and the ``cost`` strategy."""

import pytest

from repro.datagen import DATASETS
from repro.engine import Engine
from repro.engine.cost import INFINITE, CostModel
from repro.pattern import build_from_path
from repro.xmlkit import compute_stats
from repro.xpath import parse_xpath
from repro.xquery import parse_flwor
from repro.pattern.build import build_blossom_tree


@pytest.fixture(scope="module")
def flat():
    doc = DATASETS["d2"].generate(scale=0.1)
    return doc, compute_stats(doc, with_size=False)


@pytest.fixture(scope="module")
def deep():
    doc = DATASETS["d4"].generate(scale=0.1)
    return doc, compute_stats(doc, with_size=False)


class TestEstimates:
    def test_twigstack_wins_on_selective_queries(self, flat):
        doc, stats = flat
        model = CostModel(doc)
        tree = build_from_path(parse_xpath("//address//country_id"))
        best = model.choose(tree)
        assert best.strategy == "twigstack"
        # stream sizes are tiny compared to a full scan
        assert best.cost < len(doc.nodes) / 3

    def test_scan_wins_on_unselective_queries(self, flat):
        doc, stats = flat
        model = CostModel(doc)
        # address + street_address streams cover most of the document.
        tree = build_from_path(parse_xpath(
            "//address[//street_address][//zip_code][//name_of_city]"))
        ranked = model.rank(tree)
        assert ranked[0].strategy in ("pipelined", "twigstack")
        # naive NL is always ranked dead last among finite options.
        finite = [e for e in ranked if e.cost != INFINITE]
        assert finite[-1].strategy in ("nl", "xhive")

    def test_pipelined_inapplicable_on_recursive(self, deep):
        doc, stats = deep
        model = CostModel(doc)
        tree = build_from_path(parse_xpath("//VP//NP"))
        names = {e.strategy for e in model.rank(tree)}
        assert "stack" in names and "pipelined" not in names

    def test_twigstack_infinite_for_non_twig(self, flat):
        doc, stats = flat
        model = CostModel(doc)
        tree = build_blossom_tree(parse_flwor(
            "for $a in //address let $z := $a/zip_code return $a"))
        twig = next(e for e in model.rank(tree) if e.strategy == "twigstack")
        assert twig.cost == INFINITE

    def test_recursion_inflates_bnlj(self, flat, deep):
        flat_doc, flat_stats = flat
        deep_doc, deep_stats = deep
        flat_tree = build_from_path(parse_xpath("//address//zip_code"))
        deep_tree = build_from_path(parse_xpath("//VP//NP"))
        flat_cost = next(e for e in CostModel(flat_doc).rank(flat_tree)
                         if e.strategy == "bnlj").cost
        deep_cost = next(e for e in CostModel(deep_doc).rank(deep_tree)
                         if e.strategy == "bnlj").cost
        # per-node rescan volume is far larger on the deep recursive data
        assert deep_cost / len(deep_doc.nodes) > flat_cost / len(flat_doc.nodes)

    def test_estimates_sorted(self, flat):
        doc, stats = flat
        model = CostModel(doc)
        ranked = model.rank(build_from_path(parse_xpath("//address//zip_code")))
        costs = [e.cost for e in ranked]
        assert costs == sorted(costs)

    def test_pricing_reads_the_histogram_not_the_tag_index(self):
        doc = DATASETS["d2"].generate(scale=0.05)
        model = CostModel(doc)
        model.rank(build_from_path(parse_xpath("//address//zip_code")))
        assert not doc.derived.index.built
        assert model.cardinality("#root") == 1
        for tag in ("address", "zip_code", "absent"):
            assert model.cardinality(tag) == doc.derived.index.cardinality(tag)

    def test_str_rendering(self, flat):
        doc, stats = flat
        estimate = CostModel(doc).choose(
            build_from_path(parse_xpath("//address//country_id")))
        assert "twigstack" in str(estimate)


class TestCostStrategy:
    @pytest.mark.parametrize("name", ["d2", "d4"])
    def test_cost_strategy_matches_oracle(self, name):
        spec = DATASETS[name]
        doc = spec.generate(scale=0.08)
        engine = Engine(doc)
        for query in spec.queries:
            reference = engine.query(query.text, strategy="naive")
            got = engine.query(query.text, strategy="cost")
            assert got.serialize() == reference.serialize(), query.qid
            assert "cost model" in engine.last_plan

    def test_cost_on_flwor(self, flat):
        doc, _ = flat
        engine = Engine(doc)
        query = ("for $a in //address, $z in $a/zip_code "
                 "return <r>{ $z }</r>")
        reference = engine.query(query, strategy="naive")
        got = engine.query(query, strategy="cost")
        assert got.serialize() == reference.serialize()
        # twigstack is never chosen for a FLWOR, even if cheapest.
        assert "twigstack" not in engine.last_plan

    def test_cost_falls_back_when_uncompilable(self, flat):
        doc, _ = flat
        engine = Engine(doc)
        result = engine.query("//address[2]", strategy="cost")
        assert len(result) == 1
        assert "naive" in engine.last_plan


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
        from repro.pattern import build_from_path
        from repro.xpath import parse_xpath
        model = CostModel(doc)
        tree = build_from_path(parse_xpath("//VP//NN"))
        bnlj = next(e for e in model.rank(tree) if e.strategy == "bnlj")
        # predicted rescan volume = |VP| * avg_subtree(VP) + scan
        expected = len(doc.nodes) + \
            stats.tag_histogram["VP"] * stats.avg_subtree_size("VP")
        assert bnlj.cost == pytest.approx(expected)
