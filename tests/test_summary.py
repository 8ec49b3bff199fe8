"""The DataGuide-style structural summary (repro.xmlkit.summary)."""

import dataclasses
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen import DATASETS
from repro.engine import Engine
from repro.engine.database import Database
from repro.xmlkit.parser import parse
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.summary import (DOC_LABEL, MAX_PATHS, PathInfo,
                                  StructuralSummary, build_summary)
from repro.xmlkit.tree import ELEMENT, Document, DocumentBuilder
from repro.xmlkit.update import DocumentUpdater

DOC = """\
<bib>
 <book year="1994">
  <title>TCP</title>
  <author><last>Stevens</last></author>
 </book>
 <book year="2000">
  <title>Web</title>
  <author><last>Buneman</last></author>
  <author><last>Abiteboul</last></author>
 </book>
 <item id="7"><isbn>x</isbn></item>
</bib>
"""


def summary():
    return build_summary(parse(DOC))


class TestConstruction:
    def test_distinct_paths(self):
        s = summary()
        assert set(s.paths) == {
            ("bib",),
            ("bib", "book"),
            ("bib", "book", "title"),
            ("bib", "book", "author"),
            ("bib", "book", "author", "last"),
            ("bib", "item"),
            ("bib", "item", "isbn"),
        }
        assert not s.truncated

    def test_counts_aggregate_over_occurrences(self):
        s = summary()
        assert s.paths[("bib", "book")].count == 2
        assert s.paths[("bib", "book", "author")].count == 3
        assert s.label_counts["author"] == 3
        assert s.label_counts["bib"] == 1

    def test_child_sets(self):
        s = summary()
        assert s.paths[("bib",)].children == {"book", "item"}
        assert s.paths[("bib", "book")].children == {"title", "author"}

    def test_attribute_presence(self):
        s = summary()
        assert s.paths[("bib", "book")].attributes == {"year"}
        assert s.paths[("bib", "item")].attributes == {"id"}
        assert s.label_attributes["book"] == {"year"}
        assert s.label_attributes["title"] == set()

    def test_parent_and_ancestor_maps(self):
        s = summary()
        assert s.parent_labels["bib"] == {DOC_LABEL}
        assert s.parent_labels["last"] == {"author"}
        assert s.ancestor_labels["last"] == {"bib", "book", "author"}

    def test_root_labels(self):
        assert summary().root_labels() == {"bib"}

    def test_recursive_document(self):
        s = build_summary(parse("<a><a><a><b/></a></a></a>"))
        assert ("a", "a", "a") in s.paths
        assert s.label_counts["a"] == 3
        assert "a" in s.ancestor_labels["a"]


class TestConservativeHelpers:
    def test_label_occurs(self):
        s = summary()
        assert s.label_occurs("book")
        assert not s.label_occurs("zzz")
        # Wildcards and pseudo-labels are always satisfiable.
        assert s.label_occurs("*")
        assert s.label_occurs("#root")

    def test_occurs_under(self):
        s = summary()
        assert s.occurs_under("last", "book")
        assert not s.occurs_under("isbn", "book")
        assert s.occurs_under("anything", "*")

    def test_child_occurs(self):
        s = summary()
        assert s.child_occurs("author", "last")
        assert not s.child_occurs("book", "last")
        assert s.child_occurs(DOC_LABEL, "bib")
        assert not s.child_occurs(DOC_LABEL, "book")

    def test_attr_occurs(self):
        s = summary()
        assert s.attr_occurs("book", "year")
        assert not s.attr_occurs("book", "id")
        assert s.attr_occurs_anywhere("id")
        assert not s.attr_occurs_anywhere("href")


class TestTruncation:
    def test_truncated_summary_answers_true_for_everything(self):
        s = build_summary(parse("<r><a/><b/><c/></r>"), max_paths=2)
        assert s.truncated
        assert s.label_occurs("zzz")
        assert s.occurs_under("zzz", "qqq")
        assert s.child_occurs("zzz", "qqq")
        assert s.attr_occurs("zzz", "href")
        assert s.attr_occurs_anywhere("href")

    def test_truncation_changes_fingerprint(self):
        doc = parse("<r><a/><b/><c/></r>")
        assert build_summary(doc).fingerprint() \
            != build_summary(doc, max_paths=2).fingerprint()


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert summary().fingerprint() == summary().fingerprint()

    def test_changes_with_structure(self):
        base = build_summary(parse("<r><a/></r>")).fingerprint()
        assert base != build_summary(parse("<r><b/></r>")).fingerprint()
        # Count changes matter too (the path set is identical).
        assert base != build_summary(parse("<r><a/><a/></r>")).fingerprint()

    def test_changes_with_attributes(self):
        assert build_summary(parse("<r><a/></r>")).fingerprint() \
            != build_summary(parse('<r><a x="1"/></r>')).fingerprint()

    def test_empty_summary(self):
        s = StructuralSummary(paths={})
        assert len(s) == 0
        assert not s.label_occurs("a")
        assert s.fingerprint()

    def test_subtree_sizes_are_in_the_digest(self):
        # Same paths and text count; the text sits under another tag.
        deep, shallow = (build_summary(parse(xml)) for xml in
                         ("<r><a><b>t</b></a></r>", "<r><a><b/>t</a></r>"))
        assert deep.stats.tag_subtree_avg != shallow.stats.tag_subtree_avg
        assert deep.fingerprint() != shallow.fingerprint()

    def test_recursion_is_in_a_truncated_digest(self):
        # Both tables stop after r and r/x; only the statistics differ.
        nested, flat = (build_summary(parse(xml), max_paths=2) for xml in
                        ("<r><x><y/></x><a><a/></a></r>",
                         "<r><x><y/></x><a><b/></a></r>"))
        assert nested.truncated and flat.truncated
        assert nested.stats.recursive and not flat.stats.recursive
        assert nested.fingerprint() != flat.fingerprint()

    @pytest.mark.parametrize("max_paths", [MAX_PATHS, 3])
    def test_equal_digest_means_equal_stats(self, max_paths):
        """Over the where-pushdown and sibling-chain generators'
        documents, each also with every text replaced (same shape)."""
        from tests.test_where_pushdown import chain_document, generate_document

        by_digest: dict[str, list[dict]] = {}
        for seed in range(12):
            rng = random.Random(f"digest:{seed}")
            for xml in (generate_document(rng),
                        chain_document(rng, recursive=seed % 2 == 1)):
                for text in (xml, re.sub(">[^<]+<", ">v<", xml)):
                    s = build_summary(parse(text), max_paths=max_paths)
                    stats = dataclasses.asdict(s.stats)
                    del stats["serialized_bytes"]
                    by_digest.setdefault(s.fingerprint(), []).append(stats)
        assert all(len(group) >= 2 for group in by_digest.values())
        for group in by_digest.values():
            assert all(stats == group[0] for stats in group)


# ----------------------------------------------------------------------
# Exactness: the one pass against brute force from the definitions.
# ----------------------------------------------------------------------


def _element_chain(node):
    """``node`` and its element ancestors, innermost first."""
    chain = []
    while node is not None and node.kind == ELEMENT:
        chain.append(node)
        node = node.parent
    return chain


def reference_stats(doc):
    """Every statistic from its definition: parent chains for depth,
    label paths and same-tag counts, materialised subtrees for sizes."""
    nodes = list(doc.root.subtree()) if doc.root is not None else []
    elements = [n for n in nodes if n.kind == ELEMENT]
    histogram, sizes = {}, {}
    for node in elements:
        histogram[node.tag] = histogram.get(node.tag, 0) + 1
        sizes[node.tag] = sizes.get(node.tag, 0) + len(list(node.subtree()))
    depths = [len(_element_chain(n)) for n in elements]
    degree = max((sum(1 for a in _element_chain(n) if a.tag == n.tag)
                  for n in elements), default=0)
    return DocumentStats(
        n_nodes=len(nodes), n_elements=len(elements),
        n_text=len(nodes) - len(elements),
        avg_depth=sum(depths) / len(elements) if elements else 0.0,
        max_depth=max(depths, default=0), n_distinct_tags=len(histogram),
        tag_histogram=histogram, recursive=degree > 1,
        recursion_degree=degree,
        tag_subtree_avg={tag: sizes[tag] / histogram[tag]
                         for tag in histogram})


def reference_paths(doc):
    table = {}
    for node in doc.elements():
        path = tuple(n.tag for n in reversed(_element_chain(node)))
        info = table.setdefault(path, PathInfo())
        info.count += 1
        info.attributes.update(node.attrs)
        if len(path) > 1:
            table[path[:-1]].children.add(node.tag)
    return table


def assert_exact(doc):
    summary = doc.derived.summary
    assert doc.derived.stats is summary.stats
    assert summary.stats == reference_stats(doc)
    assert summary.label_counts is summary.stats.tag_histogram
    assert not summary.truncated
    assert summary.paths == reference_paths(doc)


@st.composite
def documents(draw, max_depth=6):
    """Random trees over a three-tag alphabet: nesting and repeated
    paths are common, with text and attributes mixed in."""
    builder = DocumentBuilder()

    def emit(depth):
        names = draw(st.sets(st.sampled_from(("x", "y")), max_size=2))
        builder.start_element(draw(st.sampled_from(("a", "b", "c"))),
                              {name: "v" for name in names})
        for _ in range(draw(st.integers(0, 3 if depth < max_depth else 0))):
            if draw(st.integers(0, 2)) == 0:
                builder.text(draw(st.sampled_from(("t", " ", "1"))))
            else:
                emit(depth + 1)
        builder.end_element()

    emit(1)
    return builder.finish()


LIBRARY = ("<lib>" + "".join(
    f'<shelf g="{s}">' + "".join(
        f"<book><title>t{s}{i}</title><note><note>n</note></note></book>"
        for i in range(3)) + "</shelf>" for s in range(3)) + "</lib>")


class TestExactness:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=documents())
    def test_random_trees(self, doc):
        assert_exact(doc)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_datagen_corpora(self, name):
        assert_exact(DATASETS[name].generate(scale=0.03))

    def test_after_document_updater_insert_and_delete(self):
        doc = parse(LIBRARY)
        assert_exact(doc)
        updater = DocumentUpdater(doc)
        fork = updater.doc
        shelf = fork.root.children[1]
        updater.insert_subtree(
            shelf, parse('<book k="1"><book><title>deep</title></book>'
                         "</book>").root, position=0)
        assert_exact(fork)
        updater.delete_subtree(fork.root.children[0])
        assert_exact(fork)
        assert doc.derived.summary == build_summary(parse(LIBRARY))

    def test_after_snapshot_updater_commit(self):
        db = Database(LIBRARY)
        base = db.current()
        assert_exact(base.doc)
        with db.updater() as batch:
            batch.insert_subtree(batch.doc.root,
                                 parse("<shelf><lib>x</lib></shelf>").root)
            batch.delete_subtree(batch.doc.root.children[0])
        assert db.current().doc is batch.doc
        assert_exact(batch.doc)

    def test_truncated_summary_keeps_exact_stats(self):
        doc = parse(LIBRARY)
        summary = build_summary(doc, max_paths=3)
        assert summary.truncated and len(summary.paths) == 3
        assert summary.stats == reference_stats(doc)
        reference = reference_paths(doc)
        assert all(summary.paths[p].count == reference[p].count
                   for p in summary.paths)
        assert summary.label_occurs("zzz")
        assert summary.occurs_under("title", "zzz")
        assert summary.child_occurs("zzz", "title")
        assert summary.attr_occurs("book", "zzz")

    def test_rootless_document(self):
        doc = Document()
        assert_exact(doc)
        assert doc.derived.summary.paths == {}
        assert doc.derived.stats.recursion_degree == 0
        for strategy in ("auto", "naive"):
            assert Engine(doc).query("//a", strategy=strategy).serialize() == ""
