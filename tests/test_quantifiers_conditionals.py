"""Tests for the XQuery-surface extensions: some/every and if-then-else."""

import pytest

from repro.engine import Engine, compile_query
from repro.errors import QuerySyntaxError
from repro.xpath import parse_expr
from repro.xpath.ast import Conditional, Quantified
from repro.xpath.evaluator import EvalContext, XPathEvaluator


class TestParsing:
    def test_some(self):
        expr = parse_expr('some $x in //a satisfies $x/b = "1"')
        assert isinstance(expr, Quantified)
        assert expr.kind == "some" and expr.var == "x"

    def test_every(self):
        expr = parse_expr("every $x in //a satisfies $x/b")
        assert expr.kind == "every"

    def test_nested_quantifier(self):
        expr = parse_expr(
            "some $x in //a satisfies every $y in $x/b satisfies $y/c")
        assert isinstance(expr.satisfies, Quantified)

    def test_conditional(self):
        expr = parse_expr('if (//a) then "yes" else "no"')
        assert isinstance(expr, Conditional)

    def test_str_round_trip(self):
        text = "some $x in //a satisfies $x/b"
        assert str(parse_expr(str(parse_expr(text)))) == str(parse_expr(text))

    def test_missing_satisfies(self):
        with pytest.raises(QuerySyntaxError):
            parse_expr("some $x in //a")

    def test_if_requires_else(self):
        with pytest.raises(QuerySyntaxError):
            parse_expr('if (//a) then "x"')


class TestEvaluation:
    def _eval(self, doc, text, variables=None):
        context = EvalContext(doc.document_node, variables=dict(variables or {}),
                              resolve_doc=lambda uri: doc)
        return XPathEvaluator().evaluate(parse_expr(text), context)

    def test_some_over_nodes(self, small_bib):
        assert self._eval(small_bib,
                          "some $b in //book satisfies $b/price > 60") is True
        assert self._eval(small_bib,
                          "some $b in //book satisfies $b/price > 100") is False

    def test_every_over_nodes(self, small_bib):
        assert self._eval(small_bib,
                          "every $b in //book satisfies $b/price") is True
        assert self._eval(small_bib,
                          "every $b in //book satisfies $b/author") is False

    def test_vacuous_truth(self, small_bib):
        assert self._eval(small_bib,
                          "every $b in //missing satisfies $b/x") is True
        assert self._eval(small_bib,
                          "some $b in //missing satisfies $b/x") is False

    def test_quantifier_variable_scoping(self, small_bib):
        # Outer variable unaffected by the quantifier's binding.
        book = small_bib.elements_by_tag("book")[0]
        value = self._eval(
            small_bib,
            "some $x in //book satisfies $x isnot $y",
            variables={"y": [book]})
        assert value is True

    def test_conditional_branches(self, small_bib):
        assert self._eval(small_bib, 'if (//book) then "y" else "n"') == "y"
        assert self._eval(small_bib, 'if (//nothing) then "y" else "n"') == "n"

    def test_conditional_lazy_branch_choice(self, small_bib):
        # The untaken branch may reference an unbound variable without
        # erroring, because it is never evaluated.
        assert self._eval(small_bib,
                          'if (//book) then "ok" else $boom/x') == "ok"


class TestInFLWOR:
    def test_quantifier_in_where(self, small_bib):
        engine = Engine(small_bib)
        query = ("for $b in //book "
                 'where some $a in $b/author satisfies $a/last = "Buneman" '
                 "return $b/title")
        reference = engine.query(query, strategy="naive")
        assert reference.string_values() == ["Data on the Web"]
        dispositions = [c.disposition for c in compile_query(query).tree.where]
        assert dispositions == ["residual"], (
            "a quantifier binds its own variable, so it is no vertex test "
            f"and is decided per tuple; got {dispositions}")
        for strategy in ("pipelined", "stack", "bnlj"):
            assert engine.query(query, strategy=strategy).string_values() == \
                reference.string_values(), strategy

    def test_every_in_where(self, small_bib):
        engine = Engine(small_bib)
        query = ("for $b in //book "
                 "where every $p in $b/price satisfies $p > 39 "
                 "return $b/title")
        got = engine.query(query, strategy="stack").string_values()
        assert got == ["TCP/IP Illustrated", "Data on the Web"]

    def test_conditional_in_predicate_falls_back(self, small_bib):
        engine = Engine(small_bib)
        # Conditionals inside step predicates reference no variables, so
        # they ride along as navigational vertex checks.
        result = engine.query(
            '//book[if (author) then price > 39 else price < 39]/title')
        assert result.string_values() == \
            ["TCP/IP Illustrated", "Data on the Web", "Economics"]
