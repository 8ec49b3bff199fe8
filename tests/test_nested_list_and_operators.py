"""Unit tests for the NestedList ADT and the logical operators (Section 3).

π and σ are the library's (:mod:`repro.algebra`).  The logical ⋈ lives
here as the reference the physical ``//``-joins are checked against;
no plan runs it.
"""

import pytest

from repro.algebra import project, select
from repro.algebra.nested_list import compile_projection, match_nodes, nok_root
from repro.engine import Engine
from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher, left_projection, stack_desc_join
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


def project_parts(parts, target):
    """π over one joined item: the part whose pattern tree holds ``target``."""
    for vertex, match in parts:
        try:
            return compile_projection(vertex, target)(match)
        except KeyError:
            continue
    raise KeyError(f"V{target.vid} not reachable from any joined part")


def join(left, right, predicate, left_target, right_target):
    """⋈ (Section 3.3): combine NestedLists whose projections satisfy
    ``predicate``.  A joined item is the tuple of its NestedLists, one
    ``(NoK root, match)`` per pattern tree (the pointer-level form of
    "filling out the placeholders"); ``left`` may hold earlier results,
    so joins compose."""
    right_root = nok_root(right_target)
    right_project = compile_projection(right_root, right_target)
    output = []
    for item in left:
        parts = item if isinstance(item, tuple) \
            else ((nok_root(left_target), item),)
        lnodes = project_parts(parts, left_target)
        for match in right:
            if predicate(lnodes, right_project(match)):
                output.append(parts + ((right_root, match),))
    return output


def desc(lnodes, rnodes):
    return any(l.is_ancestor_of(r) for l in lnodes for r in rnodes)


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
        assert a_entry is abcd_doc.elements_by_tag("a")[0]  # no groups
        with pytest.raises(KeyError):
            compile_projection(a_nok.root, d_vertex)

    def test_project_sequence_concatenates(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//b/d")
        b_nok = next(n for n in dec.noks if n.root.name == "b")
        d_vertex = tree.var_vertex["#result"]
        nodes = [n for entry in matches[b_nok.nok_id]
                 for n in project(entry, d_vertex)]
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
        kept = select(matches[0], dec.noks[0].root, d_vertex,
                      lambda n: n.string_value() != "2")
        [entry] = kept
        assert [n.string_value() for n in project(entry, d_vertex)] == ["1", "3"]

    def test_select_cascades_mandatory_removal(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        # Removing every d invalidates every b (mandatory), then a, then
        # the whole NestedList.
        assert select(matches[0], dec.noks[0].root, d_vertex,
                      lambda n: False) == []

    def test_select_does_not_mutate_input(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        before = project(matches[0][0], d_vertex)
        select(matches[0], dec.noks[0].root, d_vertex, lambda n: False)
        assert project(matches[0][0], d_vertex) == before


class TestJoin:
    def test_join_combines_on_predicate(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//a//d")
        edge = next(e for e in dec.inter_edges if e.parent.name == "a")
        a_vertex, d_vertex = edge.parent, edge.child
        left, right = matches[edge.nok_from], matches[edge.nok_to]

        combined = join(left, right, desc, a_vertex, d_vertex)
        # one a × three d's below it
        assert len(combined) == 3
        for item in combined:
            assert len(project_parts(item, a_vertex)) == 1
            assert len(project_parts(item, d_vertex)) == 1
        # The physical //-join pairs exactly the nodes ⋈ combines.
        physical = stack_desc_join(left_projection(left, edge), right, edge)
        assert {(a, n.nid) for a, partners in physical.adjacency.items()
                for n in match_nodes(edge.child, partners)} == \
            {(project_parts(item, a_vertex)[0].nid,
              project_parts(item, d_vertex)[0].nid) for item in combined}

    def test_join_composes_over_combined(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "//a//b//d")
        a_nok = next(n for n in dec.noks if n.root.name == "a")
        b_nok = next(n for n in dec.noks if n.root.name == "b")
        d_nok = next(n for n in dec.noks if n.root.name == "d")

        step1 = join(matches[a_nok.nok_id], matches[b_nok.nok_id],
                     desc, a_nok.root, b_nok.root)
        step2 = join(step1, matches[d_nok.nok_id], desc,
                     b_nok.root, d_nok.root)
        # The predicate projects b from the combined item, so the pairs
        # are (a,b2,d1) (a,b2,d2) (a,b3,d3): cross pairs are filtered.
        assert len(step2) == 3
        # The plan that joins with the physical operators agrees.
        plan = Engine(abcd_doc).query("//a//b//d", strategy="stack")
        assert [n.nid for n in plan.nodes()] == \
            sorted(project_parts(item, d_nok.root)[0].nid for item in step2)


class TestEntryBasics:
    def test_group_for_unknown_child(self, abcd_doc):
        tree, dec, matches = match_all(abcd_doc, "/r/a")
        [entry] = matches[0]
        stranger = tree.var_vertex["#result"]
        with pytest.raises(KeyError):
            entry.group_for(stranger)
