"""Unit tests for the NestedList ADT and the logical operators (Section 3).

π and σ are the library's (:mod:`repro.algebra`).  The logical ⋈ lives
here as the reference the physical ``//``-joins are checked against;
no plan runs it.
"""

import pytest

from repro.algebra import project, projection_path, select
from repro.algebra.nested_list import nok_root, sexpr
from repro.engine import Engine
from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher, left_projection, stack_desc_join
from repro.xmlkit import parse
from repro.xpath import parse_xpath


def match_all(doc, path_text):
    """Build, decompose, and run every NoK; returns (tree, dec, matches,
    groups): the root lists by NoK and the run tables of all of them."""
    tree = build_from_path(parse_xpath(path_text))
    dec = decompose(tree)
    matches, groups = {}, {}
    for nok in dec.noks:
        matches[nok.nok_id] = NoKMatcher(nok, doc, variables={},
                                         groups=groups).matches()
    return tree, dec, matches, groups


def project_parts(parts, target, groups):
    """π over one joined item: the part whose pattern tree holds ``target``."""
    for vertex, match in parts:
        try:
            path = projection_path(vertex, target)
        except KeyError:
            continue
        return project([match], path, groups)
    raise KeyError(f"V{target.vid} not reachable from any joined part")


def join(left, right, predicate, left_target, right_target, groups):
    """⋈ (Section 3.3): combine NestedLists whose projections satisfy
    ``predicate``.  A joined item is the tuple of its NestedLists, one
    ``(NoK root, match)`` per pattern tree (the pointer-level form of
    "filling out the placeholders"); ``left`` may hold earlier results,
    so joins compose."""
    right_root = nok_root(right_target)
    right_path = projection_path(right_root, right_target)
    output = []
    for item in left:
        parts = item if isinstance(item, tuple) \
            else ((nok_root(left_target), item),)
        lnodes = project_parts(parts, left_target, groups)
        for match in right:
            if predicate(lnodes, project([match], right_path, groups)):
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
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        nodes = project(matches[0], projection_path(dec.noks[0].root,
                                                    d_vertex), groups)
        assert [n.string_value() for n in nodes] == ["1", "2", "3"]
        assert [n.nid for n in nodes] == sorted(n.nid for n in nodes)

    def test_projection_on_intermediate_vertex(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a/b/d")
        b_vertex = tree.var_vertex["#result"].parent_edge.parent
        # Only b's with a d child survive the mandatory edge.
        assert len(project(matches[0], projection_path(dec.noks[0].root,
                                                       b_vertex), groups)) == 2

    def test_projection_across_cut_edge_rejected(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "//a//d")
        a_nok = next(n for n in dec.noks if n.root.name == "a")
        [a_match] = matches[a_nok.nok_id]
        d_vertex = tree.var_vertex["#result"]
        assert a_match is abcd_doc.elements_by_tag("a")[0]
        assert d_vertex.vid not in groups     # a cut child has no table
        with pytest.raises(KeyError):
            projection_path(a_nok.root, d_vertex)

    def test_project_sequence_concatenates(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "//b/d")
        b_nok = next(n for n in dec.noks if n.root.name == "b")
        path = projection_path(b_nok.root, tree.var_vertex["#result"])
        nodes = [n for match in matches[b_nok.nok_id]
                 for n in project([match], path, groups)]
        assert [n.string_value() for n in nodes] == ["1", "2", "3"]


class TestSexpr:
    def test_grouping_notation(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a/b")
        [root] = matches[0]
        text = sexpr(root, dec.noks[0].root, groups)
        # three b matches grouped with [] under one a.
        assert "[(b),(b),(b)]" in text.replace(" ", "")

    def test_custom_labeller(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a")
        [root] = matches[0]
        counter = {}

        def label(node):
            counter[node.tag] = counter.get(node.tag, 0) + 1
            return f"{node.tag}{counter[node.tag]}"

        assert "a1" in sexpr(root, dec.noks[0].root, groups, label)


class TestSelect:
    def test_select_filters_items(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a/b/d")
        root, d_vertex = dec.noks[0].root, tree.var_vertex["#result"]
        kept = select(matches[0], groups, root, d_vertex,
                      lambda n: n.string_value() != "2")
        assert kept is matches[0]
        assert [n.string_value() for n in project(
            kept, projection_path(root, d_vertex), groups)] == ["1", "3"]

    def test_select_cascades_mandatory_removal(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a/b/d")
        d_vertex = tree.var_vertex["#result"]
        # Removing every d invalidates every b (mandatory), then a, then
        # the whole NestedList.
        assert select(matches[0], groups, dec.noks[0].root, d_vertex,
                      lambda n: False) == []

    def test_select_does_not_mutate_input(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a/b/d")
        root, d_vertex = dec.noks[0].root, tree.var_vertex["#result"]
        path = projection_path(root, d_vertex)
        before = project(matches[0], path, groups)
        tables = dict(groups)
        runs = {vid: dict(table) for vid, table in groups.items()}
        select(matches[0], groups, root, d_vertex, lambda n: False)
        # σ replaced the tables on the path; the old ones are whole.
        assert all(groups[vid] is not tables[vid] for vid in path)
        assert project(matches[0], path, tables) == before
        assert {vid: dict(table) for vid, table in tables.items()} == runs


class TestJoin:
    def test_join_combines_on_predicate(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "//a//d")
        edge = next(e for e in dec.inter_edges if e.parent.name == "a")
        a_vertex, d_vertex = edge.parent, edge.child
        left, right = matches[edge.nok_from], matches[edge.nok_to]

        combined = join(left, right, desc, a_vertex, d_vertex, groups)
        # one a × three d's below it
        assert len(combined) == 3
        for item in combined:
            assert len(project_parts(item, a_vertex, groups)) == 1
            assert len(project_parts(item, d_vertex, groups)) == 1
        # The physical //-join pairs exactly the nodes ⋈ combines.
        physical = stack_desc_join(left_projection(left, edge, groups),
                                   right, edge)
        assert {(a, n.nid) for a, (lo, hi) in physical.ranges.items()
                for n in physical.right[lo:hi]} == \
            {(project_parts(item, a_vertex, groups)[0].nid,
              project_parts(item, d_vertex, groups)[0].nid)
             for item in combined}

    def test_join_composes_over_combined(self, abcd_doc):
        tree, dec, matches, groups = match_all(abcd_doc, "//a//b//d")
        a_nok = next(n for n in dec.noks if n.root.name == "a")
        b_nok = next(n for n in dec.noks if n.root.name == "b")
        d_nok = next(n for n in dec.noks if n.root.name == "d")

        step1 = join(matches[a_nok.nok_id], matches[b_nok.nok_id],
                     desc, a_nok.root, b_nok.root, groups)
        step2 = join(step1, matches[d_nok.nok_id], desc,
                     b_nok.root, d_nok.root, groups)
        # The predicate projects b from the combined item, so the pairs
        # are (a,b2,d1) (a,b2,d2) (a,b3,d3): cross pairs are filtered.
        assert len(step2) == 3
        # The plan that joins with the physical operators agrees.
        plan = Engine(abcd_doc).query("//a//b//d", strategy="stack")
        assert [n.nid for n in plan.nodes()] == \
            sorted(project_parts(item, d_nok.root, groups)[0].nid
                   for item in step2)


class TestEntryBasics:
    def test_group_for_unknown_child(self, abcd_doc):
        """π has no path to a vertex that is not below its start."""
        tree, dec, matches, groups = match_all(abcd_doc, "/r/a")
        a_vertex = tree.var_vertex["#result"]
        with pytest.raises(KeyError):
            projection_path(a_vertex, dec.noks[0].root)
