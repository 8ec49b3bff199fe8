"""White-box tests for the FLWORExecutor pipeline phases."""

import pytest

from repro.engine.executor import FLWORExecutor, _nok_depths
from repro.pattern import decompose
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath
from repro.xquery import parse_flwor
from repro.pattern.build import build_from_path


@pytest.fixture
def doc():
    return parse("<r><a><b><c/></b></a><a><b/></a><a/></r>")


class TestPhases:
    def test_match_phase_merges_by_document(self, doc):
        executor = FLWORExecutor(doc, counters=ScanCounters())
        flwor = parse_flwor("for $a in //a, $b in //b return $a")
        executor.execute(flwor)
        merged_notes = [n for n in executor.plan_notes if "merged scan" in n]
        assert len(merged_notes) == 1  # one document, one scan
        assert executor.counters.scans_started == 1

    def test_join_phase_semi_join_reduces(self, doc):
        # //a//c : only the first a survives the mandatory reduction.
        executor = FLWORExecutor(doc, join_algorithm="stack")
        flwor = parse_flwor("for $x in //a//c return $x")
        items = executor.execute(flwor)
        assert len(items) == 1
        # one run recorded for the a->c edge
        assert any(result.pairs == 1 and len(result.ranges) == 1
                   for result in executor._joins.values())

    def test_vacuous_root_join_noted(self, doc):
        executor = FLWORExecutor(doc, join_algorithm="stack")
        executor.execute(parse_flwor("for $a in //a return $a"))
        assert any("vacuous" in note for note in executor.plan_notes)

    def test_join_algorithm_recorded_in_notes(self, doc):
        for algorithm in ("stack", "bnlj", "nl"):
            executor = FLWORExecutor(doc, join_algorithm=algorithm)
            executor.execute(parse_flwor("for $x in //a//b return $x"))
            assert any(algorithm in note for note in executor.plan_notes), \
                algorithm

    def test_default_algorithm_ignores_recursion(self, doc):
        """The default join is the range join, recursive document or
        not; ``auto`` names a strategy, not a join."""
        nested = parse("<r><a><a><b/></a></a></r>")
        assert nested.derived.stats.recursive
        assert not doc.derived.stats.recursive
        for document in (nested, doc):
            executor = FLWORExecutor(document)
            executor.execute(parse_flwor("for $x in //a//b return $x"))
            assert any(note.endswith(": stack")
                       for note in executor.plan_notes)
            assert not any("pipelined" in note
                           for note in executor.plan_notes)
        with pytest.raises(ValueError):
            FLWORExecutor(doc, join_algorithm="auto")

    def test_unknown_algorithm_rejected(self, doc):
        with pytest.raises(ValueError):
            FLWORExecutor(doc, join_algorithm="bogus")


class TestNokDepths:
    def test_chain_depths(self):
        tree = build_from_path(parse_xpath("//a//b//c"))
        dec = decompose(tree)
        depths = _nok_depths(dec)
        by_name = {dec.noks[i].root.name: d for i, d in depths.items()}
        assert by_name["#root"] == 0
        assert by_name["a"] == 1
        assert by_name["b"] == 2
        assert by_name["c"] == 3

    def test_branching_depths(self):
        tree = build_from_path(parse_xpath("//a[//b]//c"))
        dec = decompose(tree)
        depths = _nok_depths(dec)
        by_name = {dec.noks[i].root.name: d for i, d in depths.items()}
        assert by_name["b"] == by_name["c"] == 2


class TestTupleEnumeration:
    def test_candidates_deduplicate_through_descendant_hops(self):
        # The same c is reachable under two nested a ancestors; the
        # for-variable must bind it once (XPath set semantics).
        doc = parse("<r><a><a><c/></a></a></r>")
        executor = FLWORExecutor(doc, join_algorithm="stack")
        items = executor.execute(parse_flwor("for $x in //a//c return $x"))
        assert len(items) == 1

    def test_candidates_in_document_order(self):
        doc = parse("<r><a><c i='1'/></a><a><c i='2'/><c i='3'/></a></r>")
        executor = FLWORExecutor(doc, join_algorithm="stack")
        items = executor.execute(parse_flwor("for $x in //a//c return $x"))
        assert [n.attrs["i"] for n in items] == ["1", "2", "3"]

    def test_let_binds_full_sequence_per_tuple(self):
        doc = parse("<r><a><b/><b/></a><a><b/></a></r>")
        executor = FLWORExecutor(doc, join_algorithm="stack")
        items = executor.execute(parse_flwor(
            "for $a in //a let $bs := $a/b return <n>{ count($bs) }</n>"))
        assert [n.string_value() for n in items] == ["2", "1"]


class TestNestedLoopReconciliation:
    """Regression: nested-loop joins re-discover inner matches by
    scanning, which must not resurrect entries a deeper mandatory join
    already eliminated (found by hypothesis on //a[a]//a[//a])."""

    def test_deeper_semi_join_survives_rematch(self):
        doc = parse("<r><a><a></a><a><a></a></a></a></r>")
        from repro.engine import Engine

        engine = Engine(doc)
        query = "//a[a]//a[//a]"
        reference = [n.nid for n in engine.query(query, strategy="naive").nodes()]
        assert reference == [4]
        for strategy in ("bnlj", "nl", "stack", "twigstack"):
            got = [n.nid for n in engine.query(query, strategy=strategy).nodes()]
            assert got == reference, strategy

    def test_chained_joins_with_existential_midpoints(self):
        doc = parse("<r><x><y><k/><z i='1'/></y><y><z i='2'/></y></x></r>")
        from repro.engine import Engine

        engine = Engine(doc)
        # y must have a k descendant; only the first z qualifies.
        query = "//x//y[//k]//z"
        for strategy in ("naive", "bnlj", "nl", "stack"):
            got = [n.attrs["i"] for n in
                   engine.query(query, strategy=strategy).nodes()]
            assert got == ["1"], strategy
