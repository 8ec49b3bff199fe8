"""Tests for the naive oracle (``strategy="naive"``: direct
per-iteration evaluation by ``DirectEvaluator``) and the X-Hive
simulator."""

from collections import Counter

import pytest

from repro.baseline import XHiveSimulator
from repro.engine import Engine
from repro.errors import DNFError
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath.evaluator import XPathEvaluator


def naive(doc, text, **options):
    return Engine(doc).query(text, strategy="naive", **options)


class TestNaiveInterpreter:
    def test_re_evaluates_paths_per_iteration(self, small_bib, monkeypatch):
        """The defining (intentionally wasteful) behaviour: a correlated
        inner for-path is evaluated once per outer tuple; one that names
        no variable is evaluated once in total."""
        calls = Counter()
        real = XPathEvaluator.evaluate_path

        def counting(self, path, context):
            calls[str(path)] += 1
            return real(self, path, context)

        monkeypatch.setattr(XPathEvaluator, "evaluate_path", counting)
        result = naive(small_bib,
                       "for $a in //book, $b in $a/author return <p/>")
        assert len(result) == 3         # 1 + 2 + 0 authors
        assert calls["$a/author"] == 3  # one per book
        calls.clear()
        result = naive(small_bib, "for $a in //book, $b in //title return <p/>")
        assert len(result) == 9
        assert calls["//title"] == 1

    def test_work_budget(self, small_bib):
        with pytest.raises(DNFError):
            naive(small_bib, "for $a in //book, $b in //book return <p/>",
                  work_budget=4)

    def test_where_filters_tuples(self, small_bib):
        result = naive(small_bib, "for $a in //book, $b in //book "
                                  "where $a << $b return <p/>")
        assert len(result) == 3

    def test_let_sequence_semantics(self, small_bib):
        result = naive(small_bib, "let $a := //author return count($a)")
        assert result.items == [3.0]

    def test_empty_for_yields_nothing(self, small_bib):
        result = naive(small_bib, "for $x in //nothing return <p/>")
        assert len(result) == 0

    def test_nested_flwor_in_return(self, small_bib):
        result = naive(small_bib, "for $b in //book return "
                                  "<r>{ for $a in $b/author return $a/last }</r>")
        assert len(result) == 3
        assert "Abiteboul" in result.nodes()[1].string_value()

    def test_construction_copies_nodes(self, small_bib):
        result = naive(small_bib, "for $t in //title return <w>{ $t }</w>")
        wrapped = result.nodes()[0]
        inner = wrapped.children[0]
        assert inner.tag == "title"
        assert inner.doc is not small_bib  # constructor copies

    def test_atoms_in_construction_space_separated(self, small_bib):
        result = naive(small_bib, "for $b in //book[1] return "
                                  "<n>{ count($b/author), count($b/price) }</n>")
        assert result.nodes()[0].string_value() == "1 1"

    def test_order_by_stability(self):
        doc = parse("<r><x k='b'>1</x><x k='a'>2</x><x k='b'>3</x></r>")
        result = naive(doc, "for $x in //x order by $x/@k return $x")
        assert [n.string_value() for n in result.nodes()] == ["2", "1", "3"]


class TestXHiveSimulator:
    def test_same_results_as_oracle(self, small_bib):
        query = "//book[author]//last"
        oracle = naive(small_bib, query)
        xhive = XHiveSimulator(small_bib).run(query)
        assert xhive.serialize() == oracle.serialize()

    def test_charges_navigation_work(self, small_bib):
        counters = ScanCounters()
        XHiveSimulator(small_bib, counters=counters).run("//book//last")
        # //book from the root examines all nodes; //last re-descends
        # from each book: strictly more work than one scan.
        assert counters.nodes_scanned > len(small_bib.nodes)

    def test_predicates_multiply_work(self, small_bib):
        plain = ScanCounters()
        XHiveSimulator(small_bib, counters=plain).run("//book")
        heavy = ScanCounters()
        XHiveSimulator(small_bib, counters=heavy).run(
            "//book[//last][//first][//price]")
        assert heavy.nodes_scanned > plain.nodes_scanned

    def test_budget_dnf(self, small_bib):
        counters = ScanCounters(budget=10)
        with pytest.raises(DNFError):
            XHiveSimulator(small_bib, counters=counters).run("//book//last")

    def test_flwor_supported(self, small_bib):
        result = XHiveSimulator(small_bib).run(
            "for $b in //book where $b/price > 30 return $b/title")
        assert len(result) == 2
