"""Unit tests for NoK pattern matching (Algorithm 2) and merged scans."""

import pytest

from repro.algebra import project, projection_path
from repro.pattern import build_from_path, decompose
from repro.physical import NoKMatcher, merged_scan
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import parse_xpath
from repro.xquery import parse_flwor
from repro.pattern.build import build_blossom_tree


def single_nok(path_text):
    tree = build_from_path(parse_xpath(path_text))
    dec = decompose(tree)
    return tree, dec


def matched(nok, doc, target):
    """The NoK's root matches over ``doc``, and π of one of them onto
    ``target`` (over the scan's run tables)."""
    matcher = NoKMatcher(nok, doc, variables={})
    path = projection_path(nok.root, target)
    return matcher.matches(), \
        lambda match: project([match], path, matcher.groups)


class TestMatching:
    def test_root_pattern_matches_document_node(self, small_bib):
        tree, dec = single_nok("/bib/book")
        [nok] = dec.noks
        matches, books = matched(nok, small_bib, tree.var_vertex["#result"])
        assert len(matches) == 1  # one document-node match
        assert len(books(matches[0])) == 3

    def test_mandatory_child_prunes(self, small_bib):
        tree, dec = single_nok("//book/author")
        nok = next(n for n in dec.noks if n.root.name == "book")
        matches = NoKMatcher(nok, small_bib, variables={}).matches()
        # Economics has no author: only two book matches.
        assert len(matches) == 2

    def test_value_predicate_filters(self, small_bib):
        tree, dec = single_nok('//book[@year = "2000"]')
        nok = next(n for n in dec.noks if n.root.name == "book")
        matches = NoKMatcher(nok, small_bib, variables={}).matches()
        assert len(matches) == 1
        # A match is its node.
        assert matches[0].attrs["year"] == "2000"

    def test_multiple_matches_grouped(self, small_bib):
        tree, dec = single_nok("//book/author/last")
        nok = next(n for n in dec.noks if n.root.name == "book")
        matches, lasts = matched(nok, small_bib, tree.var_vertex["#result"])
        per_book = [[n.string_value() for n in lasts(m)] for m in matches]
        assert per_book == [["Stevens"], ["Abiteboul", "Buneman"]]

    def test_matches_emitted_in_document_order(self, recursive_doc):
        tree, dec = single_nok("//section")
        nok = next(n for n in dec.noks if n.root.name == "section")
        matches = NoKMatcher(nok, recursive_doc, variables={}).matches()
        nids = [m.nid for m in matches]
        assert nids == sorted(nids)
        assert len(matches) == 4  # nested sections matched too

    def test_scan_counts_io(self, small_bib):
        counters = ScanCounters()
        tree, dec = single_nok("//book")
        nok = next(n for n in dec.noks if n.root.name == "book")
        matches = NoKMatcher(nok, small_bib, counters, variables={}).matches()
        assert matches[0].tag == "book"
        assert counters.nodes_scanned == len(small_bib.nodes)
        assert counters.scans_started == 1

    def test_bounded_scan_range(self, small_bib):
        tree, dec = single_nok("//author")
        nok = next(n for n in dec.noks if n.root.name == "author")
        book2 = small_bib.elements_by_tag("book")[1]
        matcher = NoKMatcher(nok, small_bib, start_nid=book2.nid + 1,
                             stop_nid=book2.nid + book2.subtree_size(), variables={})
        assert len(matcher.matches()) == 2  # only book 2's authors

    def test_optional_edges_keep_entry(self, paper_bib):
        # let-style optional author: books without authors still match.
        flwor = parse_flwor(
            'for $b in doc("x")//book let $a := $b/author return $b')
        tree = build_blossom_tree(flwor)
        dec = decompose(tree)
        nok = next(n for n in dec.noks if n.root.name == "book")
        matches, authors = matched(nok, paper_bib, tree.var_vertex["a"])
        assert len(matches) == 4
        per_book = [len(authors(m)) for m in matches]
        assert per_book == [0, 1, 0, 1]

    def test_following_sibling_constraint(self):
        # b only matches when it follows a matched a among the same
        # parent's children (the frontier-eligibility rule).
        doc = parse("<r><x><b/><a/></x><x><a/><b/></x></r>")
        tree = build_from_path(parse_xpath("//x/a/following-sibling::b"))
        dec = decompose(tree)
        nok = next(n for n in dec.noks if n.root.name == "x")
        matches, bs = matched(nok, doc, tree.var_vertex["#result"])
        # Only the second x has a b AFTER an a.
        assert len(matches) == 1
        assert len(bs(matches[0])) == 1

    def test_following_sibling_after_descendant_rejected(self):
        from repro.errors import CompileError
        with pytest.raises(CompileError):
            build_from_path(parse_xpath("//a/following-sibling::b"))

    def test_wildcard_tag(self, small_bib):
        tree, dec = single_nok("//book/*")
        nok = next(n for n in dec.noks if n.root.name == "book")
        matches, stars = matched(nok, small_bib, tree.var_vertex["#result"])
        assert sum(len(stars(m)) for m in matches) == 9


class TestMergedScan:
    def test_one_scan_for_many_noks(self, small_bib):
        tree, dec = single_nok("//book//last")
        counters = ScanCounters()
        results = merged_scan(dec.noks, small_bib, counters)
        # Root NoK matches the document node without scanning; the two
        # element NoKs share ONE pass.
        assert counters.scans_started == 1
        assert counters.nodes_scanned == len(small_bib.nodes)
        assert len(results) == len(dec.noks)

    def test_merged_equals_individual(self, small_bib, recursive_doc):
        for doc in (small_bib, recursive_doc):
            tree = build_from_path(parse_xpath("//book//last"))
            dec = decompose(tree)
            merged = merged_scan(dec.noks, doc)
            for nok in dec.noks:
                individual = NoKMatcher(nok, doc, variables={}).matches()
                got = merged[nok.nok_id]
                assert [m.nid for m in got] == [m.nid for m in individual]

    def test_separate_scans_cost_double(self, small_bib):
        tree, dec = single_nok("//book//author")
        element_noks = [n for n in dec.noks if n.root.name != "#root"]
        assert len(element_noks) == 2
        separate = ScanCounters()
        for nok in element_noks:
            NoKMatcher(nok, small_bib, separate, variables={}).matches()
        together = ScanCounters()
        merged_scan(element_noks, small_bib, together)
        assert separate.nodes_scanned == 2 * together.nodes_scanned
