"""Unit tests for the rule-based optimizer and the Env ADT."""

import pytest

from repro.algebra.env import Env
from repro.algebra.nested_list import NLEntry
from repro.datagen import DATASETS
from repro.engine import Engine
from repro.engine.optimizer import PlanChoice, choose_strategy
from repro.pattern import build_from_path, decompose
from repro.xmlkit import compute_stats
from repro.xpath import parse_xpath
from repro.xquery import parse_flwor
from repro.pattern.build import build_blossom_tree


@pytest.fixture
def flat_stats(small_bib):
    return compute_stats(small_bib, with_size=False)


@pytest.fixture
def deep_stats(recursive_doc):
    return compute_stats(recursive_doc, with_size=False)


class TestRuleBasedOptimizer:
    def test_no_tree_means_naive(self, flat_stats):
        choice = choose_strategy(flat_stats, None, True, True)
        assert choice.strategy == "naive"

    def test_flat_document_gets_stack(self, flat_stats):
        tree = build_from_path(parse_xpath("//book//last"))
        choice = choose_strategy(flat_stats, tree, True, True)
        assert choice.strategy == "stack"
        assert "range join" in choice.reason

    def test_recursive_without_index_gets_stack(self, deep_stats):
        tree = build_from_path(parse_xpath("//section//title"))
        choice = choose_strategy(deep_stats, tree, True, False)
        assert choice.strategy == "stack"

    def test_recursive_flwor_gets_stack(self, deep_stats):
        tree = build_blossom_tree(parse_flwor(
            "for $s in //section let $t := $s/title return $t"))
        choice = choose_strategy(deep_stats, tree, False, True)
        assert choice.strategy == "stack"

    @pytest.mark.parametrize("name", ["d1", "d4"])
    def test_auto_plans_stack_on_recursive_table3_documents(self, name):
        """TwigStack is Table 3's holistic baseline, not ``auto``'s
        choice: on the recursive datasets every Table-3 path plans the
        stack merge and answers what TwigStack and the oracle answer."""
        spec = DATASETS[name]
        engine = Engine(spec.generate(scale=0.1))
        assert engine.stats.recursive
        for query in spec.queries:
            result = engine.query(query.text)
            assert result.strategy == "stack", (query.qid, result.plan)
            answer = result.serialize()
            for oracle in ("twigstack", "naive"):
                assert answer == engine.query(
                    query.text, strategy=oracle).serialize(), \
                    (query.qid, oracle)

    def test_plan_choice_str(self):
        assert "because" not in str(PlanChoice("x", "a reason"))
        assert str(PlanChoice("stack", "why")) == "stack (why)"


class TestEnv:
    def _match(self, small_bib, tag, index=0):
        """``(vertex, match)``: the ``index``-th ``tag`` as a match of
        ``//tag``'s vertex, which has no child groups — its match is the
        node itself."""
        tree = build_from_path(parse_xpath(f"//{tag}"))
        decompose(tree)
        vertex = tree.var_vertex["#result"]
        assert not vertex.grouped
        return vertex, small_bib.elements_by_tag(tag)[index]

    def test_bind_for_is_persistent(self, small_bib):
        base = Env()
        vertex, node = self._match(small_bib, "book")
        bound = base.bind_for("b", vertex, node)
        assert base.as_variables() == {}
        assert base.anchor("b") == []
        assert bound.parent is base
        assert bound.as_variables() == {"b": [node]}
        assert bound.anchor("b") == [node]

    def test_bind_let_empty_sequence(self, small_bib):
        vertex, _ = self._match(small_bib, "author")
        env = Env().bind_let("a", vertex, [])
        assert env.as_variables() == {"a": []}
        assert env.anchor("a") == []

    def test_for_variable_reads_its_node(self, small_bib):
        vertex, node = self._match(small_bib, "title", 1)
        env = Env().bind_for("t", vertex, node)
        [read] = env.as_variables()["t"]
        assert read.string_value() == "Data on the Web"
        # A grouped vertex's binding is its entry; the node is read off it.
        tree = build_from_path(parse_xpath("//book/title"))
        decompose(tree)
        book = tree.var_vertex["#result"].parent_edge.parent
        assert book.grouped
        entry = NLEntry(book, node.parent, [[node]])
        env = Env().bind_for("b", book, entry).bind_let("l", book, [entry])
        assert env.as_variables() == {"b": [node.parent], "l": [node.parent]}
        assert env.anchor("b") == env.anchor("l") == [entry]

    def test_as_variables_shape(self, small_bib):
        vertex, node = self._match(small_bib, "price")
        env = Env().bind_for("p", vertex, node).bind_let("q", vertex, [node])
        variables = env.as_variables()
        assert list(variables) == ["p", "q"]
        assert variables["p"] == variables["q"] == [node]
        assert env.anchor("q") == [node]
        assert variables is not env.as_variables()  # a fresh dict per read
        assert variables["q"] is not env.anchor("q")  # a copy, not the binding

    def test_rebinding_shadows(self, small_bib):
        vertex, first = self._match(small_bib, "book", 0)
        _, second = self._match(small_bib, "book", 1)
        env = Env().bind_for("b", vertex, first).bind_for("b", vertex, second)
        assert env.as_variables() == {"b": [second]}
        assert env.anchor("b") == [second]
        assert env.parent.anchor("b") == [first]
