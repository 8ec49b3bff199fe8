"""Unit tests for the rule-based optimizer and the Env ADT."""

import pytest

from repro.algebra.env import Env
from repro.datagen import DATASETS
from repro.engine import Engine
from repro.engine.optimizer import PlanChoice, choose_strategy
from repro.pattern import build_from_path
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
        """The ``index``-th ``tag`` element: a match is its node."""
        return small_bib.elements_by_tag(tag)[index]

    def test_bind_for_is_persistent(self, small_bib):
        base = Env()
        node = self._match(small_bib, "book")
        bound = base.bind_for("b", node)
        assert base.as_variables() == {}
        assert base.parent is None
        assert bound.parent is base
        assert bound.as_variables() == {"b": [node]}
        assert bound.binding is node

    def test_bind_let_empty_sequence(self, small_bib):
        env = Env().bind_let("a", [])
        assert env.as_variables() == {"a": []}
        assert env.binding == []

    def test_for_variable_reads_its_node(self, small_bib):
        node = self._match(small_bib, "title", 1)
        env = Env().bind_for("t", node)
        [read] = env.as_variables()["t"]
        assert read.string_value() == "Data on the Web"
        # A vertex with child runs binds its node all the same: the
        # runs live in the execution's tables, not on the binding.
        env = Env().bind_for("b", node.parent).bind_let("l", [node.parent])
        assert env.as_variables() == {"b": [node.parent], "l": [node.parent]}
        assert env.parent.binding is node.parent
        assert env.binding == [node.parent]
        assert Env.__slots__ == ("parent", "name", "binding")

    def test_as_variables_shape(self, small_bib):
        node = self._match(small_bib, "price")
        env = Env().bind_for("p", node).bind_let("q", [node])
        variables = env.as_variables()
        assert list(variables) == ["p", "q"]
        assert variables["p"] == variables["q"] == [node]
        assert env.binding == [node]
        assert variables is not env.as_variables()  # a fresh dict per read
        assert variables["q"] is not env.binding  # a copy, not the binding

    def test_rebinding_shadows(self, small_bib):
        first = self._match(small_bib, "book", 0)
        second = self._match(small_bib, "book", 1)
        env = Env().bind_for("b", first).bind_for("b", second)
        assert env.as_variables() == {"b": [second]}
        assert env.binding is second
        assert env.parent.binding is first
