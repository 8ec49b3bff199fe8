"""Tests for the dataset generators and the Q1-Q6 workloads."""

import pytest

from repro.datagen import DATASETS, measure_selectivity
from repro.xmlkit import compute_stats, parse, serialize
from repro.xpath import evaluate_xpath

SCALE = 0.1


@pytest.fixture(scope="module")
def generated():
    return {name: spec.generate(scale=SCALE) for name, spec in DATASETS.items()}


class TestDeterminism:
    def test_same_seed_same_document(self):
        for spec in DATASETS.values():
            first = spec.generate(scale=0.02)
            second = spec.generate(scale=0.02)
            assert serialize(first.root) == serialize(second.root)

    def test_scale_controls_size(self):
        small = DATASETS["d5"].generate(scale=0.02)
        large = DATASETS["d5"].generate(scale=0.1)
        assert len(large.nodes) > 2 * len(small.nodes)


class TestTable1Signatures:
    """The structural signatures the generators must reproduce."""

    def test_recursiveness_flags(self, generated):
        for name, spec in DATASETS.items():
            stats = compute_stats(generated[name], with_size=False)
            assert stats.recursive == spec.recursive, name

    def test_d1_signature(self, generated):
        stats = compute_stats(generated["d1"], with_size=False)
        assert stats.n_distinct_tags == 8
        assert stats.max_depth <= 10
        assert stats.recursion_degree >= 2

    def test_d2_signature(self, generated):
        stats = compute_stats(generated["d2"], with_size=False)
        assert stats.n_distinct_tags == 7
        assert stats.max_depth == 3

    def test_d3_signature(self, generated):
        stats = compute_stats(generated["d3"], with_size=False)
        assert 30 <= stats.n_distinct_tags <= 55  # catalog-like alphabet
        assert 4 <= stats.max_depth <= 8

    def test_d4_signature(self, generated):
        stats = compute_stats(generated["d4"], with_size=False)
        assert stats.max_depth >= 15       # deep parse trees
        assert stats.recursion_degree >= 5

    def test_d5_signature(self, generated):
        stats = compute_stats(generated["d5"], with_size=False)
        assert stats.max_depth <= 6        # shallow, bushy
        assert 20 <= stats.n_distinct_tags <= 40

    def test_documents_parse_back(self, generated):
        # The generators build trees directly; they must serialize to
        # well-formed XML.
        for name, doc in generated.items():
            text = serialize(doc.root)
            assert parse(text).root.tag == doc.root.tag, name


class TestWorkload:
    def test_every_dataset_has_six_queries(self):
        for spec in DATASETS.values():
            assert [q.qid for q in spec.queries] == \
                ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]

    def test_queries_parse_and_run(self, generated):
        for name, spec in DATASETS.items():
            doc = generated[name]
            for query in spec.queries:
                evaluate_xpath(doc, query.text)  # must not raise

    def test_categories_follow_table2(self):
        for name, spec in DATASETS.items():
            if name == "d5":
                continue  # the paper assigns no categories to d5
            cats = [q.category for q in spec.queries]
            assert cats == ["hc", "hb", "mc", "mb", "lc", "lb"], name

    def test_selectivity_bands_ordered(self, generated):
        """Table 2's property: h < m < l selectivity per dataset, with
        the high band genuinely selective."""
        for name, spec in DATASETS.items():
            if name == "d5":
                continue
            doc = generated[name]
            sel = {q.qid: measure_selectivity(doc, q.text)
                   for q in spec.queries}
            high = max(sel["Q1"], sel["Q2"])
            moderate = max(sel["Q3"], sel["Q4"])
            low = min(sel["Q5"], sel["Q6"])
            assert high < 0.02, name
            assert high < moderate, name
            assert moderate < low, name
            assert low > 0.08, name

    def test_queries_have_multiple_noks(self):
        """Section 5.1: every test query must decompose into at least
        two NoK subtrees (so joins are actually exercised)."""
        from repro.pattern import build_from_path, decompose
        from repro.xpath import parse_xpath
        for name, spec in DATASETS.items():
            for query in spec.queries:
                tree = build_from_path(parse_xpath(query.text))
                dec = decompose(tree)
                element_noks = [n for n in dec.noks if n.root.name != "#root"]
                assert len(element_noks) >= 2, (name, query.qid)

    def test_query_lookup(self):
        spec = DATASETS["d1"]
        assert spec.query("Q3").category == "mc"
        with pytest.raises(KeyError):
            spec.query("Q9")

    def test_topology_classes(self):
        # chain queries have no branching predicates; branching do.
        for name, spec in DATASETS.items():
            if name == "d5":
                continue
            for query in spec.queries:
                if query.topology == "b":
                    assert "[" in query.text, (name, query.qid)
