"""Unit tests for the reference navigational XPath evaluator."""

import math

import pytest

from repro.errors import ExecutionError
from repro.xmlkit import parse
from repro.xpath import evaluate_xpath, parse_expr
from repro.xpath.evaluator import (
    AttrNode,
    EvalContext,
    XPathEvaluator,
    boolean_value,
)


def values(doc, query):
    return [n.string_value().strip() for n in evaluate_xpath(doc, query)]


class TestAxes:
    def test_child_and_descendant(self, small_bib):
        assert len(evaluate_xpath(small_bib, "/bib/book")) == 3
        assert len(evaluate_xpath(small_bib, "//last")) == 3
        assert len(evaluate_xpath(small_bib, "/bib//last")) == 3

    def test_descendant_or_self_combo(self, recursive_doc):
        # //section//section finds nested sections only.
        nested = evaluate_xpath(recursive_doc, "//section//section")
        assert [n.attrs["id"] for n in nested] == ["1.1", "1.1.1"]

    def test_parent_axis(self, small_bib):
        parents = evaluate_xpath(small_bib, "//last/../..")
        assert {p.tag for p in parents} == {"book"}

    def test_following_sibling(self, small_bib):
        siblings = evaluate_xpath(small_bib, "//book[1]/following-sibling::book")
        assert len(siblings) == 2

    def test_ancestor(self, small_bib):
        ancestors = evaluate_xpath(small_bib, "//last/ancestor::book")
        assert len(ancestors) == 2  # two books contain last elements

    def test_preceding_following(self, small_bib):
        books = evaluate_xpath(small_bib, "//book")
        following = evaluate_xpath(small_bib, "//book[1]/following::price")
        assert len(following) == 2
        preceding = evaluate_xpath(small_bib, "//book[3]/preceding::title")
        assert len(preceding) == 2
        assert all(b.tag == "book" for b in books)

    def test_attribute_axis(self, small_bib):
        years = evaluate_xpath(small_bib, "//book/@year")
        assert [a.value for a in years] == ["1994", "2000", "1999"]
        assert all(isinstance(a, AttrNode) for a in years)

    def test_text_nodes(self, small_bib):
        texts = evaluate_xpath(small_bib, "//title/text()")
        assert "Economics" in [t.string_value() for t in texts]

    def test_star(self, small_bib):
        children = evaluate_xpath(small_bib, "/bib/book/*")
        assert {c.tag for c in children} == {"title", "author", "price"}

    def test_results_deduped_and_ordered(self, recursive_doc):
        # //section//title would find nested titles through multiple
        # ancestors; duplicates must collapse.
        titles = evaluate_xpath(recursive_doc, "//section//title")
        nids = [t.nid for t in titles]
        assert nids == sorted(set(nids))


class TestPredicates:
    def test_positional(self, small_bib):
        assert values(small_bib, "//book[2]/title") == ["Data on the Web"]
        assert values(small_bib, "//book[position()=3]/title") == ["Economics"]
        assert values(small_bib, "//book[last()]/title") == ["Economics"]

    def test_positional_is_per_context(self, small_bib):
        # author[1] selects the first author of EACH book.
        firsts = values(small_bib, "//book/author[1]/last")
        assert firsts == ["Stevens", "Abiteboul"]

    def test_value_comparisons(self, small_bib):
        assert values(small_bib, "//book[price > 40]/title") == ["TCP/IP Illustrated"]
        assert values(small_bib, "//book[price <= 30]/title") == ["Economics"]
        assert values(small_bib, '//book[@year = "2000"]/title') == ["Data on the Web"]
        assert values(small_bib, '//book[@year != "2000"][price < 66]/title') == \
            ["TCP/IP Illustrated", "Economics"]

    def test_existential_comparison_over_node_set(self, small_bib):
        # A book with ANY author named Buneman.
        assert values(small_bib, '//book[author/last = "Buneman"]/title') == \
            ["Data on the Web"]

    def test_not_and_boolean_mix(self, small_bib):
        assert values(small_bib, "//book[not(author)]/title") == ["Economics"]
        assert values(small_bib, "//book[author and price > 50]/title") == \
            ["TCP/IP Illustrated"]
        assert values(small_bib, "//book[not(author) or price > 50]/title") == \
            ["TCP/IP Illustrated", "Economics"]

    def test_functions(self, small_bib):
        assert values(small_bib, "//book[count(author) >= 2]/title") == \
            ["Data on the Web"]
        assert values(small_bib, '//title[contains(., "Web")]') == ["Data on the Web"]
        assert values(small_bib, '//title[starts-with(., "TCP")]') == \
            ["TCP/IP Illustrated"]
        assert values(small_bib, "//book[empty(author)]/title") == ["Economics"]
        assert values(small_bib, "//book[exists(author)]/title") == \
            ["TCP/IP Illustrated", "Data on the Web"]

    def test_dot_comparison(self, small_bib):
        assert values(small_bib, '//last[. = "Stevens"]') == ["Stevens"]


class TestExpressions:
    def _eval(self, doc, text, variables=None):
        evaluator = XPathEvaluator()
        context = EvalContext(doc.document_node, variables=dict(variables or {}),
                              resolve_doc=lambda uri: doc)
        return evaluator.evaluate(parse_expr(text), context)

    def test_count(self, small_bib):
        assert self._eval(small_bib, "count(//author)") == 3.0

    def test_node_order_comparisons(self, small_bib):
        books = small_bib.elements_by_tag("book")
        variables = {"a": [books[0]], "b": [books[1]]}
        assert self._eval(small_bib, "$a << $b", variables) is True
        assert self._eval(small_bib, "$a >> $b", variables) is False
        assert self._eval(small_bib, "$a is $a", variables) is True
        assert self._eval(small_bib, "$a isnot $b", variables) is True

    def test_order_comparison_requires_single_node(self, small_bib):
        books = small_bib.elements_by_tag("book")
        with pytest.raises(ExecutionError):
            self._eval(small_bib, "$a << $b",
                       {"a": [books[0], books[1]], "b": [books[2]]})

    def test_order_comparison_empty_is_false(self, small_bib):
        assert self._eval(small_bib, "$a << $b",
                          {"a": [], "b": [small_bib.root]}) is False

    def test_deep_equal_function(self, paper_bib):
        authors = paper_bib.elements_by_tag("author")
        assert self._eval(paper_bib, "deep-equal($x, $y)",
                          {"x": [authors[0]], "y": [authors[1]]}) is True
        assert self._eval(paper_bib, "deep-equal($x, $y)",
                          {"x": [], "y": []}) is True
        assert self._eval(paper_bib, "deep-equal($x, $y)",
                          {"x": [authors[0]], "y": []}) is False

    def test_string_and_number(self, small_bib):
        assert self._eval(small_bib, "string(//price)") == "65.95"
        assert self._eval(small_bib, "number(//price)") == 65.95
        assert math.isnan(self._eval(small_bib, "number(//title)"))

    def test_concat_and_normalize(self, small_bib):
        assert self._eval(small_bib, 'concat("a", "b", "c")') == "abc"
        assert self._eval(small_bib, "normalize-space(//author)") == "StevensW."

    def test_name(self, small_bib):
        assert self._eval(small_bib, "name(//book)") == "book"

    def test_unbound_variable(self, small_bib):
        with pytest.raises(ExecutionError):
            self._eval(small_bib, "$nothing/title")

    def test_unknown_function(self, small_bib):
        from repro.xpath.ast import FunctionCall
        evaluator = XPathEvaluator()
        context = EvalContext(small_bib.document_node)
        with pytest.raises(ExecutionError):
            evaluator.evaluate(FunctionCall("frobnicate", ()), context)


class TestBooleanValue:
    def test_rules(self):
        assert boolean_value(True) is True
        assert boolean_value(0.0) is False
        assert boolean_value(float("nan")) is False
        assert boolean_value(1.5) is True
        assert boolean_value("") is False
        assert boolean_value("x") is True
        assert boolean_value([]) is False
        assert boolean_value([object()]) is True


class TestValueCoercion:
    def test_numeric_string_comparison(self, small_bib):
        # price (numeric string) compared against a number.
        assert values(small_bib, "//book[price = 29.99]/title") == ["Economics"]

    def test_string_order_falls_back_to_lexicographic(self):
        doc = parse("<r><x>abc</x><x>abd</x></r>")
        assert values(doc, '//x[. > "abc"]') == ["abd"]

    def test_count_work_counts_examined_nodes(self, small_bib):
        charged = []
        evaluator = XPathEvaluator(count_work=charged.append)
        context = EvalContext(small_bib.document_node)
        from repro.xpath.parser import parse_xpath
        evaluator.evaluate_path(parse_xpath("//book"), context)
        # One descendant step from the document node examines every node.
        assert sum(charged) == len(small_bib.nodes) - 1


class TestNumericLexicalRule:
    """One rule decides "is this text a number?" — Python's ``float``
    also reads ``nan`` / ``inf`` / ``infinity`` and ``1_0``, which made
    ``"Nan"`` unequal to itself and ``"1_0"`` equal to ``"10"`` on
    every strategy, the oracle included."""

    DOC = "<r><b><a>Nan</a></b><b><a>1_0</a></b><b><a>10</a></b></r>"
    PATHS = [('//b[a = "Nan"]', ["Nan"]), ('//b[a != "Nan"]', ["1_0", "10"]),
             ('//b[a = "10"]', ["10"]), ("//b[a = 10]", ["10"])]

    @pytest.mark.parametrize("strategy",
                             ["auto", "pipelined", "twigstack", "naive"])
    @pytest.mark.parametrize("path,expected", PATHS)
    def test_almost_numbers_are_strings(self, path, expected, strategy):
        from repro import Engine

        result = Engine(parse(self.DOC)).query(path, strategy=strategy)
        assert result.string_values() == expected

    @pytest.mark.parametrize("strategy", ["auto", "pipelined", "naive"])
    def test_order_by_files_them_among_the_strings(self, strategy):
        from repro import Engine

        doc = parse("<r><b><a>inf</a></b><b><a>Nan</a></b><b><a>2</a></b>"
                    "<b><a>1_0</a></b><b><a>10</a></b></r>")
        result = Engine(doc).query(
            "for $b in //b order by $b/a return $b/a", strategy=strategy)
        assert result.string_values() == ["2", "10", "1_0", "Nan", "inf"]

    @pytest.mark.parametrize("text,number", [
        ("1", 1.0), ("-1.5", -1.5), ("+2", 2.0), (" 2 ", 2.0), ("\t3\n", 3.0),
        ("1.", 1.0), (".5", 0.5), ("-.5e1", -5.0), ("1e3", 1000.0),
        ("1E-2", 0.01), ("007", 7.0), ("1e400", float("inf")),
        ("", None), (" ", None), (".", None), ("e5", None), ("1e", None),
        ("1 2", None), ("--1", None), ("0x10", None), ("1,5", None),
        ("abc", None), ("nan", None), ("NaN", None), (" Nan ", None),
        ("inf", None), ("-inf", None), ("+Infinity", None),
        ("INFINITY", None), ("1_0", None), ("1_000.5", None),
        ("\u0661\u0662", None), ("\uff11", None),
    ])
    def test_the_helper(self, text, number):
        from repro.xpath.evaluator import parse_number

        assert parse_number(text) == number

    def test_computed_nan_and_infinity_are_unchanged(self, small_bib):
        evaluator = XPathEvaluator()
        context = EvalContext(small_bib.document_node)

        def run(text):
            return evaluator.evaluate(parse_expr(text), context)
        assert math.isnan(run('number("abc")'))
        assert run("1 div 0") == math.inf and math.isnan(run("0 div 0"))
        assert run('number("inf") = number("inf")') is False   # NaN now
        assert run('number(" 12 ")') == 12.0
        # Printing them used to raise OverflowError / ValueError; they
        # print with XQuery's spellings.
        assert run('string(number("abc"))') == "NaN"
        assert run("string((0 - 1) div 0)") == "-INF"
        from repro import Engine
        assert Engine(small_bib).query(
            "for $b in //book[1] return (1 div 0, 0 div 0, 4 div 2)"
        ).serialize() == "INF NaN 2"

