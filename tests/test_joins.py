"""Unit tests for the structural join operators (Section 4.2 / 4.3).

All join algorithms must produce identical partner runs on identical
inputs; the pipelined merge additionally refuses nesting input and
reports its O(1) memory in ``peak_buffered``, and the range join
charges two ``comparisons`` per left node.
"""

import random

import pytest

from repro.algebra.nested_list import match_nodes
from repro.engine import Engine
from repro.errors import ExecutionError
from repro.pattern import build_from_path, decompose
from repro.physical import (
    NoKMatcher,
    bounded_nested_loop_join,
    left_projection,
    naive_nested_loop_join,
    nested_loop_pairs,
    pipelined_desc_join,
    stack_desc_join,
)
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath


def setup_join(doc, path_text):
    """Decompose a two-NoK path and return everything a join needs."""
    tree = build_from_path(parse_xpath(path_text))
    dec = decompose(tree)
    edge = next(e for e in dec.inter_edges if e.parent.name != "#root")
    left_nok = dec.noks[edge.nok_from]
    right_nok = dec.noks[edge.nok_to]
    left = NoKMatcher(left_nok, doc, variables={}).matches()
    right = NoKMatcher(right_nok, doc, variables={}).matches()
    projection = left_projection(left, edge)
    return tree, dec, edge, projection, right, right_nok


def partner_nids(result):
    return {k: [n.nid for n in match_nodes(result.edge.child,
                                            result.right[lo:hi])]
            for k, (lo, hi) in result.ranges.items()}


@pytest.fixture
def flat_doc():
    return parse("<r><a><b/><c><b/></c></a><a><x/></a><a><b/></a></r>")


@pytest.fixture
def nested_doc():
    # a's nest inside a's: the pipelined merge must refuse this.
    return parse("<r><a><a><b/></a><b/></a><a><b/></a></r>")


class TestAlgorithmAgreement:
    def test_all_algorithms_agree_flat(self, flat_doc):
        tree, dec, edge, proj, right, right_nok = setup_join(flat_doc, "//a//b")
        results = {
            "pl": pipelined_desc_join(proj, right, edge),
            "stack": stack_desc_join(proj, right, edge),
            "bnlj": bounded_nested_loop_join(proj, right, right_nok, flat_doc,
                                             edge, variables={}),
            "naive": naive_nested_loop_join(proj, right, right_nok, flat_doc,
                                            edge, variables={}),
        }
        reference = partner_nids(results["pl"])
        assert reference  # non-empty join
        for name, result in results.items():
            assert partner_nids(result) == reference, name

    def test_nesting_algorithms_agree_recursive(self, nested_doc):
        tree, dec, edge, proj, right, right_nok = setup_join(nested_doc, "//a//b")
        results = {
            "stack": stack_desc_join(proj, right, edge),
            "bnlj": bounded_nested_loop_join(proj, right, right_nok,
                                             nested_doc, edge, variables={}),
            "naive": naive_nested_loop_join(proj, right, right_nok,
                                            nested_doc, edge, variables={}),
        }
        reference = partner_nids(results["stack"])
        for name, result in results.items():
            assert partner_nids(result) == reference, name
        # The inner b pairs with BOTH nested a ancestors.
        inner_b = [nid for nid, partners in reference.items()
                   if len(partners) >= 1]
        assert len(inner_b) == 3

    def test_pipelined_refuses_nesting_input(self, nested_doc):
        tree, dec, edge, proj, right, right_nok = setup_join(nested_doc, "//a//b")
        with pytest.raises(ExecutionError):
            pipelined_desc_join(proj, right, edge)


#: Forced ``pipelined`` on recursive data: shrunk from a generated
#: differential, each answered silently short before the guard read the
#: whole left input (a nested left node still pending when the right
#: input ended was never inspected).
RECURSIVE_FIXTURES = [
    ("//a//*/*//a", "<r><a><a><b><a/></b></a></a></r>"),
    ("/r/c/*//*[b]//b", "<r><c><b><b><a/><b/></b></b></c><c/></r>"),
    ("for $x in //* for $y in $x//c where $x << $y return $y",
     "<r><a><c/></a></r>"),
]


def _recursive_xml(rng, depth=1):
    tag = rng.choice("abc")
    children = "" if depth >= 4 else "".join(
        _recursive_xml(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return f"<{tag}>{children}</{tag}>"


def _pipelined_or_refusal(engine, query):
    try:
        return engine.query(query, strategy="pipelined").serialize()
    except ExecutionError:
        return None


class TestTheorem2Guard:
    """The pipelined merge gives the right answer or the typed refusal."""

    @pytest.mark.parametrize("query, xml", RECURSIVE_FIXTURES)
    def test_shrunk_recursive_fixtures_are_refused(self, query, xml):
        engine = Engine(parse(xml))
        assert engine.query(query, strategy="naive").serialize()
        with pytest.raises(ExecutionError, match="nesting left input"):
            engine.query(query, strategy="pipelined")

    def test_generated_recursive_documents_never_differ(self):
        rng = random.Random("theorem-2-guard")
        for _ in range(120):
            xml = "<r>" + "".join(_recursive_xml(rng)
                                  for _ in range(rng.randint(1, 4))) + "</r>"
            engine = Engine(parse(xml))
            for query, _ in RECURSIVE_FIXTURES:
                got = _pipelined_or_refusal(engine, query)
                assert got is None or got == engine.query(
                    query, strategy="naive").serialize(), (query, xml)

    @pytest.mark.parametrize("strategy", ["auto", "parallel"])
    def test_a_chosen_plan_never_meets_the_guard(self, strategy):
        # Only a *requested* ``pipelined`` is refused.  ``*`` on the left
        # of a ``//`` edge nests on any document with depth >= 2 — the
        # third fixture's is not recursive — so a chosen plan runs that
        # edge on the stack merge (the parent answered the FLWORs short).
        queries = ["//*//c", "//a/*//c", RECURSIVE_FIXTURES[2][0],
                   "for $x in //* for $y in $x//c return <p>{$x}</p>"]
        rng = random.Random("wildcard-left")
        documents = [RECURSIVE_FIXTURES[2][1], "<r><a><b><c/></b><c/></a></r>"]
        documents += ["<r>" + "".join(_recursive_xml(rng) for _ in range(3))
                      + "</r>" for _ in range(40)]
        for xml in documents:
            engine = Engine(parse(xml))
            for query in queries:
                assert engine.query(query, strategy=strategy).serialize() \
                    == engine.query(query, strategy="naive").serialize(), \
                    (query, xml)

    def test_nesting_behind_the_last_right_entry_is_refused(self):
        # The right input ends before the merge reaches the nested pair.
        doc = parse("<r><a><b/></a><a><a/></a></r>")
        tree, dec, edge, proj, right, _ = setup_join(doc, "//a//b")
        with pytest.raises(ExecutionError):
            pipelined_desc_join(proj, right, edge)

    def test_guard_charges_no_comparisons(self, flat_doc):
        # One per right entry tested against the current left candidate
        # (the same on the non-recursive Table-3 datasets as before).
        counters = ScanCounters()
        tree, dec, edge, proj, right, _ = setup_join(flat_doc, "//a//b")
        pipelined_desc_join(proj, right, edge, counters)
        assert counters.comparisons == len(right) == 3


class TestMemoryAccounting:
    def test_pipelined_is_constant_memory(self, flat_doc):
        counters = ScanCounters()
        tree, dec, edge, proj, right, _ = setup_join(flat_doc, "//a//b")
        pipelined_desc_join(proj, right, edge, counters)
        assert counters.peak_buffered <= 1

    def test_bnlj_scans_are_bounded_by_subtrees(self, flat_doc):
        tree, dec, edge, proj, right, right_nok = setup_join(flat_doc, "//a//b")
        bounded = ScanCounters()
        bounded_nested_loop_join(proj, right, right_nok, flat_doc, edge,
                                 bounded, variables={})
        naive = ScanCounters()
        naive_nested_loop_join(proj, right, right_nok, flat_doc, edge, naive,
                               variables={})
        assert bounded.nodes_scanned < naive.nodes_scanned


class TestPairJoins:
    def test_nested_loop_pairs_cartesian_filter(self):
        pairs = nested_loop_pairs([1, 2, 3], [2, 3], lambda a, b: a < b)
        assert pairs == [(1, 2), (1, 3), (2, 3)]

    def test_comparison_counting(self):
        counters = ScanCounters()
        nested_loop_pairs([1, 2], [1, 2, 3], lambda a, b: True, counters)
        assert counters.comparisons == 6

    def test_stack_join_streams_and_keeps_right_entries(self, nested_doc):
        # The range join reads both lists by position (no one-shot
        # iterators); every partner is the right input's own entry, and
        # each nested ancestor gets its own run of it.
        tree, dec, edge, proj, right, _ = setup_join(nested_doc, "//a//b")
        result = stack_desc_join(proj, right, edge)
        assert result.right is right
        partners = [e for u in proj for e in result.partners(u)]
        assert partners and all(
            any(e is entry for entry in right) for e in partners)
        assert result.pairs == len(partners) == 4


class TestOrderPreservation:
    def test_merge_join_output_ordered_by_left(self, flat_doc):
        # Theorem 2: with document-ordered inputs on a non-recursive
        # document, iterating adjacency in left-node order gives
        # document-ordered right nodes overall.
        tree, dec, edge, proj, right, _ = setup_join(flat_doc, "//a//b")
        result = pipelined_desc_join(proj, right, edge)
        flattened = []
        for node in proj:
            for partner in match_nodes(edge.child, result.partners(node)):
                flattened.append(partner.nid)
        assert flattened == sorted(flattened)

    def test_example5_order_violation(self, paper_bib):
        """Example 5: the <<-join is NOT order preserving.

        Joining books b1..b4 pairwise with b_i << b_j and projecting the
        second component yields [b2,b3,b4,b3,b4,b4] — not document
        order, exactly the paper's counterexample."""
        books = paper_bib.elements_by_tag("book")
        pairs = nested_loop_pairs(books, books, lambda x, y: x.nid < y.nid)
        projected = [y.nid for _, y in pairs]
        assert projected != sorted(projected)
        # the paper's sequence shape: strictly increasing runs per outer
        assert len(pairs) == 6
