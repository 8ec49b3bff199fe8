"""Unit tests for BlossomTree construction and decomposition."""

import gc
import pickle
import weakref

import pytest

from repro.errors import CompileError
from repro.pattern import (
    MODE_MANDATORY,
    MODE_OPTIONAL,
    build_blossom_tree,
    build_from_path,
    decompose,
)
from repro.xpath import parse_xpath
from repro.xquery import parse_flwor

EXAMPLE1 = """
for $book1 in doc("bib.xml")//book, $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2 and not($book1/title = $book2/title)
      and deep-equal($aut1, $aut2)
return <p>{ $book1/title }{ $book2/title }</p>
"""


class TestBuildFromFLWOR:
    def test_example1_shape_matches_figure1(self):
        tree = build_blossom_tree(parse_flwor(EXAMPLE1))
        # One shared document root, two book blossoms below it.
        assert len(tree.roots) == 1
        root = tree.roots[0]
        books = root.children()
        assert [v.name for v in books] == ["book", "book"]
        assert tree.var_vertex["book1"] is books[0]
        assert tree.var_vertex["book2"] is books[1]
        # for-edges are mandatory; let-(author) edges optional.
        assert all(e.mode == MODE_MANDATORY for e in root.child_edges)
        aut1 = tree.var_vertex["aut1"]
        assert aut1.parent_edge.parent is books[0]
        assert aut1.parent_edge.mode == MODE_OPTIONAL
        # Crossing edges: <<, not(=) on titles, deep-equal on authors.
        relations = {(e.relation, e.negated) for e in tree.crossing_edges}
        assert ("<<", False) in relations
        assert ("=", True) in relations
        assert ("deep-equal", False) in relations

    def test_crossing_edge_endpoints_are_title_vertices(self):
        tree = build_blossom_tree(parse_flwor(EXAMPLE1))
        eq_edge = next(e for e in tree.crossing_edges if e.relation == "=")
        assert eq_edge.u.name == "title" and eq_edge.v.name == "title"
        assert eq_edge.u.parent_edge.parent is tree.var_vertex["book1"]
        assert eq_edge.v.parent_edge.parent is tree.var_vertex["book2"]

    def test_fresh_chains_never_shared(self):
        # Both clauses navigate $b/author; each gets its own vertex so
        # one clause's pruning cannot corrupt the other's binding.
        flwor = parse_flwor(
            "for $b in //book let $x := $b/author let $y := $b/author "
            "return $x")
        tree = build_blossom_tree(flwor)
        assert tree.var_vertex["x"] is not tree.var_vertex["y"]

    def test_variable_aliasing_rejected(self):
        with pytest.raises(CompileError):
            build_blossom_tree(parse_flwor(
                "for $a in //x let $b := $a return $b"))

    def test_unbound_variable_rejected(self):
        with pytest.raises(CompileError):
            build_blossom_tree(parse_flwor(
                "for $a in $nothing/x return $a"))

    def test_positional_predicate_rejected(self):
        with pytest.raises(CompileError):
            build_blossom_tree(parse_flwor(
                "for $a in //x[2] return $a"))
        with pytest.raises(CompileError):
            build_blossom_tree(parse_flwor(
                "for $a in //x[position() = 1] return $a"))

    def test_parent_axis_rejected(self):
        with pytest.raises(CompileError):
            build_blossom_tree(parse_flwor(
                "for $a in //x/.. return $a"))

    def test_literal_prune_on_for_variable(self):
        flwor = parse_flwor(
            'for $b in //book where $b/price > 30 return $b')
        tree = build_blossom_tree(flwor)
        book = tree.var_vertex["b"]
        # A mandatory pruning chain with the value constraint was added.
        price_edges = [e for e in book.child_edges if e.child.name == "price"]
        assert price_edges and price_edges[0].mode == MODE_MANDATORY
        assert price_edges[0].child.value_predicates
        (conjunct,) = tree.where
        assert conjunct.disposition == "pushed-exact", (
            "the chain IS the conjunct for a for-bound variable (general "
            "comparison is existential), so the finish does not evaluate "
            f"it again; got {conjunct.disposition}")
        assert conjunct.target is price_edges[0].child

    def test_literal_prune_not_applied_to_let(self):
        flwor = parse_flwor(
            'for $x in //shop let $b := $x/book '
            'where $b/price > 30 return $b')
        tree = build_blossom_tree(flwor)
        b = tree.var_vertex["b"]
        # let-bound: no mandatory pruning chain may shrink the sequence.
        assert all(e.mode != MODE_MANDATORY for e in b.child_edges)

    def test_local_value_predicates_attach(self):
        tree = build_from_path(parse_xpath('//book[@year = "2000"]'))
        book = tree.var_vertex["#result"]
        assert book.value_predicates

    def test_existential_predicate_becomes_subtree(self):
        tree = build_from_path(parse_xpath("//a[b/c]"))
        a = tree.var_vertex["#result"]
        b = a.children()[0]
        assert b.name == "b" and not b.returning
        assert b.parent_edge.mode == MODE_MANDATORY
        assert b.children()[0].name == "c"

    def test_tree_is_freed_without_the_cycle_collector(self):
        # Upward links are weak: a dropped tree leaves no cyclic garbage.
        flwor = parse_flwor(EXAMPLE1)
        gc.collect()
        gc.disable()
        try:
            tree = build_blossom_tree(flwor)
            vertex = weakref.ref(tree.var_vertex["aut1"])
            del tree
            assert vertex() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_pickled_noks_keep_their_edges(self):
        tree = build_from_path(parse_xpath("//a[b/c]//d"))
        noks = pickle.loads(pickle.dumps(decompose(tree).noks))
        a = next(nok.root for nok in noks if nok.root.name == "a")
        b = a.children()[0]
        assert b.parent_edge.parent is a and b.parent_edge is a.child_edges[0]
        assert b.children()[0].parent_edge.parent is b


class TestDecompose:
    def test_chain_of_descendants(self):
        tree = build_from_path(parse_xpath("//a//b//c"))
        dec = decompose(tree)
        # #root, a, b, c each become their own NoK.
        assert len(dec.noks) == 4
        assert len(dec.inter_edges) == 3
        assert all(e.axis == "descendant" for e in dec.inter_edges)

    def test_child_steps_stay_in_one_nok(self):
        tree = build_from_path(parse_xpath("/a/b/c"))
        dec = decompose(tree)
        assert len(dec.noks) == 1
        assert not dec.inter_edges
        assert [v.name for v in dec.noks[0].vertices] == ["#root", "a", "b", "c"]

    def test_mixed_query(self):
        tree = build_from_path(parse_xpath("//a/b[c]//d/e"))
        dec = decompose(tree)
        names = {tuple(v.name for v in nok.vertices) for nok in dec.noks}
        assert ("a", "b", "c") in names
        assert ("d", "e") in names

    def test_nok_membership_map(self):
        tree = build_from_path(parse_xpath("//a/b//c"))
        dec = decompose(tree)
        for nok in dec.noks:
            for vertex in nok.vertices:
                assert dec.nok_of(vertex) is nok

    def test_doc_uri_on_root_noks(self):
        tree = build_blossom_tree(parse_flwor(
            'for $a in doc("one.xml")//x, $b in doc("two.xml")//y return $a'))
        dec = decompose(tree)
        uris = {n.doc_uri for n in dec.root_noks()}
        assert uris == {"one.xml", "two.xml"}

    def test_example5_counts(self):
        # Figure 1's BlossomTree: root NoK + 2 book NoKs.
        tree = build_blossom_tree(parse_flwor(EXAMPLE1))
        dec = decompose(tree)
        assert len(dec.noks) == 3
        assert len(dec.inter_edges) == 2
