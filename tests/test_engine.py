"""Integration tests for the engine: executor, session, strategies."""

import pytest

from repro.errors import CompileError, DNFError
from repro.engine import Engine, compile_query
from repro.xmlkit.storage import ScanCounters

ALL_BLOSSOM = ["pipelined", "stack", "bnlj", "nl"]


@pytest.fixture
def engine(small_bib):
    return Engine(small_bib)


class TestBarePaths:
    PATHS = [
        "//book/title",
        "//book//last",
        "//book[author]//title",
        "//book[author][price]/title",
        '//book[@year = "2000"]//last',
        '//book[author/last = "Stevens"]/title',
        "/bib/book/price",
        "//author//last",
    ]

    @pytest.mark.parametrize("path", PATHS)
    def test_all_strategies_match_naive(self, engine, path):
        reference = engine.query(path, strategy="naive").serialize()
        for strategy in ALL_BLOSSOM + ["twigstack", "xhive", "auto"]:
            if strategy == "twigstack":
                try:
                    got = engine.query(path, strategy=strategy)
                except CompileError:
                    continue
            else:
                got = engine.query(path, strategy=strategy)
            assert got.serialize() == reference, strategy

    def test_results_are_input_nodes(self, engine, small_bib):
        result = engine.query("//book")
        assert all(n.doc is small_bib for n in result.nodes())

    def test_positional_query_falls_back(self, engine):
        result = engine.query("//book[2]/title")
        assert result.string_values() == ["Data on the Web"]
        assert "naive" in result.plan

    def test_count_expression(self, engine):
        result = engine.query("count(//author)")
        assert result.items == [3.0]


class TestFLWOR:
    #: The ``/`` spellings of the root, each with its ``doc()`` twin.
    LONE_SLASH = {
        '/': 'doc("bib.xml")',
        'for $d in /, $b in $d//book return $b/title':
            'for $d in doc("bib.xml"), $b in $d//book return $b/title'}

    @pytest.mark.parametrize("text", [
        'doc("bib.xml")',
        'for $d in doc("bib.xml") return $d/bib/book/title',
        'let $d := doc("bib.xml") return $d//last',
        'for $d in doc("bib.xml"), $b in $d//book return $b/title',
        *LONE_SLASH])
    def test_variable_bound_to_the_document_node(self, engine, text):
        """Regression: a variable bound at a pattern root anchored its
        candidate walk on itself and bound nothing on every BlossomTree
        strategy, while ``naive`` answered.  A lone ``/`` is the same
        root: it used to be a syntax error."""
        expected = engine.query(text, strategy="naive").serialize()
        assert expected
        if text in self.LONE_SLASH:
            assert expected == engine.query(
                self.LONE_SLASH[text], strategy="naive").serialize()
        for strategy in ALL_BLOSSOM + ["auto", "parallel"]:
            got = engine.query(text, strategy=strategy)
            assert got.strategy != "naive"
            assert got.serialize() == expected, strategy

    def test_basic_for(self, engine):
        result = engine.query(
            "for $b in //book return $b/title", strategy="pipelined")
        assert len(result) == 3

    def test_let_binds_sequence(self, engine):
        result = engine.query(
            "for $b in //book let $a := $b/author "
            "return <n>{ count($a) }</n>", strategy="pipelined")
        assert [n.string_value() for n in result.nodes()] == ["1", "2", "0"]

    def test_where_with_value_comparison(self, engine):
        result = engine.query(
            "for $b in //book where $b/price > 30 return $b/title",
            strategy="pipelined")
        assert result.string_values() == ["TCP/IP Illustrated", "Data on the Web"]

    def test_where_on_attribute(self, engine):
        result = engine.query(
            'for $b in //book where $b/@year = "2000" return $b/title',
            strategy="pipelined")
        assert result.string_values() == ["Data on the Web"]

    def test_cartesian_with_order_comparison(self, engine):
        result = engine.query(
            "for $a in //book, $b in //book where $a << $b "
            "return <p>{ $a/@year }</p>", strategy="pipelined")
        assert len(result) == 3  # (b1,b2) (b1,b3) (b2,b3)

    def test_order_by(self, engine):
        result = engine.query(
            "for $b in //book order by $b/title return $b/title",
            strategy="pipelined")
        titles = result.string_values()
        assert titles == sorted(titles)

    def test_order_by_descending_numeric(self, engine):
        result = engine.query(
            "for $b in //book order by $b/price descending return $b/price",
            strategy="pipelined")
        prices = [float(v) for v in result.string_values()]
        assert prices == sorted(prices, reverse=True)

    def test_nested_variable_anchor(self, engine):
        result = engine.query(
            "for $b in //book, $a in $b/author, $l in $a/last "
            "return $l", strategy="pipelined")
        assert result.string_values() == ["Stevens", "Abiteboul", "Buneman"]

    def test_descendant_from_variable(self, engine):
        result = engine.query(
            "for $b in //book, $l in $b//last return $l",
            strategy="pipelined")
        assert len(result) == 3

    def test_let_from_let(self, engine):
        result = engine.query(
            "let $books := //book let $authors := $books/author "
            "return count($authors)", strategy="pipelined")
        assert result.items == [3.0]

    def test_for_over_let(self, engine):
        result = engine.query(
            "let $books := //book for $t in $books/title return $t",
            strategy="pipelined")
        assert len(result) == 3

    def test_tuple_order_is_nested_loop_order(self, engine):
        result = engine.query(
            "for $a in //book/title, $b in //book/price "
            "return <p>{ $a }{ $b }</p>", strategy="pipelined")
        assert len(result) == 9
        first = result.nodes()[0]
        assert "TCP/IP" in first.string_value()

    def test_constructor_wrapper(self, engine):
        result = engine.query(
            "<all>{ for $t in //title return $t }</all>", strategy="pipelined")
        assert len(result) == 1
        assert result.nodes()[0].tag == "all"
        assert len(result.nodes()[0].children) == 3

    def test_strategies_agree_on_flwor(self, engine):
        query = ("for $b in //book, $a in $b/author "
                 "where $b/price > 30 return <r>{ $a/last }</r>")
        reference = engine.query(query, strategy="naive").serialize()
        for strategy in ALL_BLOSSOM + ["xhive", "auto"]:
            assert engine.query(query, strategy=strategy).serialize() == \
                reference, strategy


class TestSessionMachinery:
    def test_unknown_strategy(self, engine):
        with pytest.raises(ValueError):
            engine.query("//book", strategy="quantum")

    def test_twigstack_rejects_flwor_with_where(self, engine):
        with pytest.raises(CompileError):
            engine.query("for $a in //book, $b in //book "
                         "where $a << $b return $a", strategy="twigstack")

    def test_explain_mentions_strategy_and_tree(self, engine):
        text = engine.explain("//book[author]//last")
        assert "strategy:" in text
        assert "BlossomTree" in text
        assert "NoK" in text

    def test_explain_fallback_reason(self, engine):
        text = engine.explain("//book[2]")
        assert "fallback reason" in text

    def test_work_budget_dnf(self, engine):
        with pytest.raises(DNFError):
            engine.query("//book//last", strategy="pipelined", work_budget=3)

    def test_counters_populated(self, engine, small_bib):
        counters = ScanCounters()
        engine.query("//book//last", strategy="pipelined", counters=counters)
        assert counters.nodes_scanned == len(small_bib.nodes)
        assert counters.scans_started == 1

    def test_auto_picks_stack_on_flat(self, engine):
        # The range join is sound on any input: auto runs it on flat
        # documents too, and the pipelined merge only by name.
        result = engine.query("for $b in //book, $l in $b//last return $l")
        assert result.strategy == "stack"
        assert "join V1->V2: stack" in result.plan
        assert "pipelined" not in result.plan

    def test_auto_picks_stack_on_recursive(self, recursive_doc):
        engine = Engine(recursive_doc)
        result = engine.query("for $s in //section, $t in $s//title return $t")
        assert "stack" in result.plan

    def test_compile_query_classification(self):
        compiled = compile_query("//a//b")
        assert compiled.is_bare_path and compiled.optimizable
        compiled = compile_query("count(//a)")
        assert compiled.flwor is None
        compiled = compile_query("for $a in //x[1] return $a")
        assert compiled.compile_error is not None


class TestStatic:
    def test_static_constructor(self, engine):
        result = engine.query("<out><fixed/></out>")
        assert result.serialize() == "<out><fixed/></out>"

    def test_sequence_query(self, engine):
        result = engine.query("(//title, //price)")
        assert len(result) == 6
