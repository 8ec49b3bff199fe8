"""Unit tests for the NestedList ADT and the logical operators (Section 3)."""

import pytest

from repro.algebra import join, project, project_sequence, select
from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher
from repro.xmlkit import parse
from repro.xpath import parse_xpath


def match_all(doc, path_text):
    """Build, decompose, and run every NoK; returns (tree, dec, matches)."""
    tree = build_from_path(parse_xpath(path_text))
    dec = decompose(tree)
    matches = {}
    for nok in dec.noks:
        matches[nok.nok_id] = NoKMatcher(nok, doc, variables={}).matches()
    return tree, dec, matches


@pytest.fixture
def abcd_doc():
    # Figure 3(b)-style data: a's with grouped b's, d's and c's.
    return parse("<r><a><b/><b><d>1</d><d>2</d></b><b><d>3</d></b>"
                 "<c/><c/></a></r>")


class TestProjection:
    def test_projection_is_document_ordered(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        [entry] = matches[0]
        d_vertex = tree.var_vertex["#result"]
        nodes = project(entry, d_vertex)
        assert [n.string_value() for n in nodes] == ["1", "2", "3"]
        assert [n.nid for n in nodes] == sorted(n.nid for n in nodes)

    def test_projection_on_intermediate_vertex(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        [entry] = matches[0]
        b_vertex = tree.var_vertex["#result"].parent_edge.parent
        # Only b's with a d child survive the mandatory edge.
        assert len(project(entry, b_vertex)) == 2

    def test_projection_across_cut_edge_rejected(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//a//d")
        a_nok = next(n for n in dec.noks if n.root.name == "a")
        [a_entry] = [e for e in matches[a_nok.nok_id]]
        d_vertex = tree.var_vertex["#result"]
        with pytest.raises(KeyError):
            project(a_entry, d_vertex)

    def test_project_sequence_concatenates(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//b/d")
        b_nok = next(n for n in dec.noks if n.root.name == "b")
        d_vertex = tree.var_vertex["#result"]
        nodes = project_sequence(matches[b_nok.nok_id], d_vertex)
        assert [n.string_value() for n in nodes] == ["1", "2", "3"]


class TestSexpr:
    def test_grouping_notation(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b")
        [entry] = matches[0]
        text = entry.sexpr()
        # three b matches grouped with [] under one a.
        assert "[(b),(b),(b)]" in text.replace(" ", "")

    def test_custom_labeller(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a")
        [entry] = matches[0]
        counter = {}

        def label(node):
            counter[node.tag] = counter.get(node.tag, 0) + 1
            return f"{node.tag}{counter[node.tag]}"

        assert "a1" in entry.sexpr(label)


class TestSelect:
    def test_select_filters_items(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        kept = select(matches[0], d_vertex,
                      lambda n: n.string_value() != "2")
        [entry] = kept
        assert [n.string_value() for n in project(entry, d_vertex)] == ["1", "3"]

    def test_select_cascades_mandatory_removal(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        # Removing every d invalidates every b (mandatory), then a, then
        # the whole NestedList.
        assert select(matches[0], d_vertex, lambda n: False) == []

    def test_select_does_not_mutate_input(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        before = project(matches[0][0], d_vertex)
        select(matches[0], d_vertex, lambda n: False)
        assert project(matches[0][0], d_vertex) == before


class TestJoin:
    def test_join_combines_on_predicate(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//a//d")
        a_nok = next(n for n in dec.noks if n.root.name == "a")
        d_nok = next(n for n in dec.noks if n.root.name == "d")
        a_vertex = a_nok.root
        d_vertex = d_nok.root

        def desc(lnodes, rnodes):
            return any(l.is_ancestor_of(r) for l in lnodes for r in rnodes)

        combined = join(matches[a_nok.nok_id], matches[d_nok.nok_id],
                        desc, a_vertex, d_vertex)
        # one a × three d's below it
        assert len(combined) == 3
        for item in combined:
            assert len(item.project(a_vertex)) == 1
            assert len(item.project(d_vertex)) == 1

    def test_join_composes_over_combined(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//a//b//d")
        a_nok = next(n for n in dec.noks if n.root.name == "a")
        b_nok = next(n for n in dec.noks if n.root.name == "b")
        d_nok = next(n for n in dec.noks if n.root.name == "d")

        def desc(lnodes, rnodes):
            return any(l.is_ancestor_of(r) for l in lnodes for r in rnodes)

        step1 = join(matches[a_nok.nok_id], matches[b_nok.nok_id],
                     desc, a_nok.root, b_nok.root)
        step2 = join(step1, matches[d_nok.nok_id], desc,
                     b_nok.root, d_nok.root)
        # (a,b1,d?) b with two d's + b with one d -> but join is at the
        # NestedList level: each (a,b) pairs with d's below ANY b... the
        # predicate projects b from the combined item, so pairs are
        # (a,b2,d1) (a,b2,d2) (a,b3,d3) and cross pairs are filtered.
        assert len(step2) == 3


class TestEntryBasics:
    def test_group_for_unknown_child(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a")
        [entry] = matches[0]
        stranger = tree.var_vertex["#result"]
        with pytest.raises(KeyError):
            entry.group_for(stranger)
