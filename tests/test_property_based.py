"""Property-based tests (hypothesis): random documents, random queries.

The central property: every evaluation strategy in the repository
agrees with the naive oracle on randomly generated documents and
queries.  Side properties cover parser round-trips, Theorem 1/2 order
preservation, and join-algorithm equivalence.
"""

from __future__ import annotations


from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import project
from repro.algebra.nested_list import match_nodes
from repro.engine import Engine
from repro.errors import CompileError
from repro.pattern import build_from_path, decompose
from repro.physical import (
    NoKMatcher,
    bounded_nested_loop_join,
    left_projection,
    naive_nested_loop_join,
    pipelined_desc_join,
    stack_desc_join,
)
from repro.xmlkit import parse, serialize
from repro.xmlkit.tree import DocumentBuilder
from repro.xpath import parse_xpath

TAGS = ["a", "b", "c", "d"]

# ----------------------------------------------------------------------
# Generators.
# ----------------------------------------------------------------------


@st.composite
def xml_documents(draw, max_depth=4, max_children=4):
    """A random small document over a 4-tag alphabet (recursion allowed)."""

    def subtree(depth):
        tag = draw(st.sampled_from(TAGS))
        if depth >= max_depth:
            return (tag, [], draw(st.booleans()))
        n_children = draw(st.integers(0, max_children - depth))
        children = [subtree(depth + 1) for _ in range(n_children)]
        return (tag, children, draw(st.booleans()))

    builder = DocumentBuilder()

    def emit(node):
        tag, children, with_text = node
        builder.start_element(tag)
        if with_text and not children:
            builder.text(draw(st.sampled_from(["x", "y", "1", "2"])))
        for child in children:
            emit(child)
        builder.end_element()

    emit(("r", [subtree(1) for _ in range(draw(st.integers(1, 4)))], False))
    return builder.finish()


@st.composite
def twig_paths(draw, max_steps=3):
    """A random //-flavoured path with optional branch predicates."""
    parts = []
    for _ in range(draw(st.integers(1, max_steps))):
        sep = draw(st.sampled_from(["/", "//"]))
        tag = draw(st.sampled_from(TAGS))
        predicates = ""
        if draw(st.integers(0, 3)) == 0:
            predicates = f"[{draw(st.sampled_from(TAGS))}]"
        elif draw(st.integers(0, 4)) == 0:
            predicates = f"[//{draw(st.sampled_from(TAGS))}]"
        parts.append(f"{sep}{tag}{predicates}")
    path = "".join(parts)
    return path if path.startswith("/") else "//" + path


COMMON_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Differential properties.
# ----------------------------------------------------------------------


class TestStrategyAgreement:
    @COMMON_SETTINGS
    @given(doc=xml_documents(), path=twig_paths())
    def test_all_strategies_agree_on_paths(self, doc, path):
        engine = Engine(doc)
        reference = engine.query(path, strategy="naive")
        ref_ids = [n.nid for n in reference.nodes()]
        for strategy in ("stack", "bnlj", "xhive", "auto"):
            got = engine.query(path, strategy=strategy)
            assert [n.nid for n in got.nodes()] == ref_ids, strategy
        try:
            got = engine.query(path, strategy="twigstack")
        except CompileError:
            return
        assert [n.nid for n in got.nodes()] == ref_ids, "twigstack"

    @COMMON_SETTINGS
    @given(doc=xml_documents(), path=twig_paths(max_steps=2),
           inner=st.sampled_from(TAGS))
    def test_flwor_agrees_with_oracle(self, doc, path, inner):
        engine = Engine(doc)
        query = (f"for $x in {path}, $y in $x//{inner} "
                 f"return <p>{{ $y }}</p>")
        reference = engine.query(query, strategy="naive").serialize()
        for strategy in ("stack", "bnlj"):
            assert engine.query(query, strategy=strategy).serialize() == \
                reference, strategy

    @COMMON_SETTINGS
    @given(doc=xml_documents(), path=twig_paths(max_steps=2))
    def test_let_count_agrees(self, doc, path):
        engine = Engine(doc)
        query = f"for $x in {path} let $k := $x/a return <n>{{ count($k) }}</n>"
        reference = engine.query(query, strategy="naive").serialize()
        assert engine.query(query, strategy="stack").serialize() == reference


class TestParserRoundTrip:
    @COMMON_SETTINGS
    @given(doc=xml_documents())
    def test_serialize_parse_identity(self, doc):
        text = serialize(doc.root)
        again = parse(text)
        assert serialize(again.root) == text
        assert len(again.nodes) == len(doc.nodes)

    @COMMON_SETTINGS
    @given(path=twig_paths())
    def test_path_str_reparses(self, path):
        parsed = parse_xpath(path)
        assert str(parse_xpath(str(parsed))) == str(parsed)


class TestStructuralInvariants:
    @COMMON_SETTINGS
    @given(doc=xml_documents())
    def test_region_labels_encode_ancestry(self, doc):
        # For every pair: region containment iff tree ancestry.
        nodes = doc.nodes[:30]
        for u in nodes:
            for v in nodes:
                contained = u.start < v.start and v.end < u.end
                assert contained == (u is not v and u.is_ancestor_of(v))

    @COMMON_SETTINGS
    @given(doc=xml_documents(), tag=st.sampled_from(TAGS))
    def test_theorem1_projection_order(self, doc, tag):
        """Theorem 1: NoK scan projections are document-ordered.

        The paper's physical layout keeps one *global* list per pattern
        node, which makes the concatenated projection document-ordered
        even when matches nest (recursive documents).  Our per-match
        layout guarantees the theorem directly only when the match
        roots do not nest; the join input path
        (:func:`~repro.physical.structural.left_projection`) restores
        the global order in all cases — both facts are asserted here.
        """
        tree = build_from_path(parse_xpath(f"//{tag}/a"))
        dec = decompose(tree)
        nok = next(n for n in dec.noks if n.root.name == tag)
        matches = NoKMatcher(nok, doc, variables={}).matches()
        a_vertex = tree.var_vertex["#result"]
        roots_nest = any(m1.node.is_ancestor_of(m2.node)
                         for m1 in matches for m2 in matches)
        if not roots_nest:
            nids = [n.nid for entry in matches for n in project(entry, a_vertex)]
            assert nids == sorted(nids)
        # The join-facing projection is document-ordered unconditionally.
        fake_edge = type("E", (), {"parent": a_vertex})
        nids = [n.nid for n in left_projection(matches, fake_edge)]
        assert nids == sorted(nids)
        assert len(nids) == len(set(nids))

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=xml_documents(), outer=st.sampled_from(TAGS + ["*"]),
           inner=st.sampled_from(TAGS + ["*", "b/c", "a[b]"]),
           rng=st.randoms(use_true_random=False))
    def test_join_algorithms_equivalent(self, doc, outer, inner, rng):
        """Every ``//``-join operator pairs the same (u, right entry)
        set, over the whole right input and over a reduced one (what a
        deeper mandatory join leaves): the range join; both nested
        loops, whose runs rest on one node's descendants being
        contiguous in document order; and the pipelined merge where the
        left input does not nest.  Recursive documents and ``*`` parents
        make the left input nest."""
        tree = build_from_path(parse_xpath(f"//{outer}//{inner}"))
        dec = decompose(tree)
        edge = next(e for e in dec.inter_edges if e.parent.name != "#root")
        left = NoKMatcher(dec.noks[edge.nok_from], doc, variables={}).matches()
        right_nok = dec.noks[edge.nok_to]
        right = NoKMatcher(right_nok, doc, variables={}).matches()
        projection = left_projection(left, edge)
        nests = any(later.start < earlier.end
                    for earlier, later in zip(projection, projection[1:]))

        def pairs(result):
            return {(u.nid, id(entry)) for u in projection
                    for entry in result.partners(u)}

        for entries in (right, [m for m in right if rng.random() < 0.7]):
            expected = {(u.nid, id(entry)) for u in projection
                        for entry, node in zip(
                            entries, match_nodes(edge.child, entries))
                        if u.is_ancestor_of(node)}
            joins = {
                "range": stack_desc_join(projection, entries, edge),
                "bnlj": bounded_nested_loop_join(
                    projection, entries, right_nok, doc, edge, variables={}),
                "nl": naive_nested_loop_join(
                    projection, entries, right_nok, doc, edge, variables={}),
            }
            if not nests:
                joins["pipelined"] = pipelined_desc_join(projection, entries,
                                                         edge)
            for name, result in joins.items():
                assert pairs(result) == expected, name
                assert result.pairs == len(expected), name
