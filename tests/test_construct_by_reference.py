"""Construction by reference: the executor's return clause builds
:class:`~repro.xmlkit.tree.Constructed` nodes that hold their content
as references into the source, and copies only when one is navigated.

Every case is a differential against the naive oracle, which builds
the same nodes by the same content rule and copies them at once.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro
from repro import Engine
from repro.obs.metrics import REGISTRY
from repro.serve import client as client_mod
from repro.serve.protocol import encode_item
from repro.xmlkit import parse, serialize
from repro.xmlkit.tree import ELEMENT, Constructed
from repro.xmlkit.update import DocumentUpdater
from repro.xpath import parse_expr
from repro.xpath.compile import compile_expr
from repro.xpath.evaluator import EvalContext, XPathEvaluator

XML = ('<lib><b x="1" y="a&amp;&lt;&quot;"><t>A &amp; <i>b</i></t><p>2</p>'
       '</b><b x="2"><t>B</t><p>x</p><p>1e400</p></b><b x="3"><t/>'
       '<p>-0</p></b></lib>')
MATERIALISED = REGISTRY.get("repro_constructed_materialised_total")

SHAPES = {
    "reference": "for $b in //b return <r>{$b/t}</r>",
    "nested": "for $b in //b return <r><s>{$b/t}<u/></s><v>{$b/p}</v></r>",
    "escaped attributes": ('for $b in //b return <r k="a&lt;b" m="&quot;">'
                           '{$b/t}</r>'),
    "text": "for $b in //b return <r>lead<s>in</s>tail</r>",
    "text nodes": "for $b in //b return <r>{$b/t/text(), $b/t//text()}</r>",
    "atoms": 'for $b in //b return <r>{(1, "a", $b/p, 2.5, count($b/p))}</r>',
    "attribute items": "for $b in //b return <r>{$b/@x}{$b/@y, $b/@x}</r>",
    "document nodes": 'for $b in //b return <r>{doc("other.xml")}</r>',
    "empty content": ('for $b in //b return (<r>{""}</r>, <r>{$b/zz}</r>, '
                      '<r>{$b/t/text()}</r>, <r/>)'),
    "several enclosed": ("for $b in //b order by $b/p return "
                         "<r>{$b/@x}-{$b/t}{1, 2}{3}<s>{$b/p}</s></r>"),
    "nested flwor": ("for $b in //b return <r>{for $p in $b/p return "
                     "<w>{$p}</w>}</r>"),
    "where and let": ("for $b in //b let $t := $b/t where $b/p < 5 "
                      "return <r>{$t}</r>"),
}


def engine() -> Engine:
    return Engine(parse(XML))


def run(text: str, strategy: str = "auto"):
    return engine().query(text, strategy=strategy)


def shape(node):
    """Every label of a materialised tree, in document order."""
    return [(n.nid, n.kind, n.tag, n.text, n.attrs, n.start, n.end, n.level,
             None if n.parent is None else n.parent.nid)
            for n in node.doc.nodes]


@pytest.mark.parametrize("text", SHAPES.values(), ids=SHAPES.keys())
def test_executor_matches_the_eager_oracle(text):
    auto, naive = run(text), run(text, "naive")
    assert auto.strategy != "naive"
    assert auto.serialize() == naive.serialize()
    assert auto.string_values() == naive.string_values()
    assert [item.typed_value() for item in auto.nodes()] == \
        [item.typed_value() for item in naive.nodes()]
    assert auto.pretty() == naive.pretty()


@pytest.mark.parametrize("text", SHAPES.values(), ids=SHAPES.keys())
def test_navigation_materialises_the_oracles_tree(text):
    auto, naive = run(text), run(text, "naive")
    for mine, theirs in zip(auto.nodes(), naive.nodes(), strict=True):
        assert shape(mine) == shape(theirs)
        for node in mine.doc.nodes[1:]:
            assert node.doc is mine.doc
            assert node in node.parent.children
        assert mine.doc.root is mine and mine.parent is mine.doc.nodes[0]


def test_zero_length_text_is_dropped():
    for strategy in ("auto", "naive"):
        result = run('for $b in //b return <r>{""}</r>', strategy)
        assert result.serialize() == "<r/><r/><r/>"
        assert all(not item.children for item in result)
    # The separator of two empty atoms is not zero-length.
    assert run('for $b in //b[1] return <r>{"", ""}</r>').serialize() == \
        "<r> </r>"


def test_identity_is_stable_after_first_navigation():
    first = run(SHAPES["reference"]).items[0]
    assert first.content is not None
    assert first.doc.nodes[1] is first and first.doc.root is first
    assert first.children[0] is first.children[0]
    assert first.content is None
    assert first.subtree_size() == len(first.doc.nodes) - 1


@pytest.mark.parametrize("compiled", [False, True])
def test_node_comparisons_between_roots_answer_as_before(compiled):
    def ask(op, a, b):
        expr = parse_expr(f"$a {op} $b")
        variables = {"a": [a], "b": [b]}
        if compiled:
            return compile_expr(expr)(a, variables, None)
        return XPathEvaluator().evaluate(expr, EvalContext(
            a, variables=variables))

    ops = ("<<", ">>", "is")
    first, second = run(SHAPES["reference"]).items[:2]
    eager = run(SHAPES["reference"], "naive").items[:2]
    pairs = [(first, second), (second, first), (first, first)]
    before = [ask(op, a, b) for a, b in pairs for op in ops]
    assert first.children and second.children      # navigate both
    assert [ask(op, a, b) for a, b in pairs for op in ops] == before == \
        [ask(op, a, b) for a, b in [(eager[0], eager[1]), (eager[1], eager[0]),
                                    (eager[0], eager[0])] for op in ops]


def first_leaf_element(doc):
    node = doc.root
    while any(child.kind == ELEMENT for child in node.children):
        node = next(c for c in node.children if c.kind == ELEMENT)
    return node


@pytest.mark.parametrize("name, uri", [("reference", None), ("nested", None),
                                       ("document nodes", "other.xml")])
def test_in_place_updates_leave_constructed_results_unchanged(name, uri):
    db = engine()
    doc = db.doc
    if uri is not None:     # doc(uri) reads the engine's one document
        assert db.query(f'doc("{uri}")/*').items == [doc.root]
    for change in ("insert", "delete"):
        result = db.query(SHAPES[name])
        expected = result.serialize()
        assert expected == db.query(SHAPES[name], strategy="naive").serialize()
        assert all(item.content is not None for item in result)
        leaf = first_leaf_element(doc)
        if change == "insert":
            DocumentUpdater(doc).insert_subtree(leaf, parse("<x>new</x>").root)
        else:
            DocumentUpdater(doc).delete_subtree(leaf)
        assert result.serialize() == expected, change
        assert db.query(SHAPES[name]).serialize() != expected


def test_serializing_copies_nothing_and_navigation_copies_once():
    db = engine()
    text = ("for $b in //b let $t := $b/t where $b/p < $p order by $b/p "
            "return <r>{$t}</r>")
    prepared = db.prepare(text)
    before = MATERIALISED.value()
    for bound in (1, 3, 100):
        result = prepared.execute(params={"p": bound})
        result.serialize()
        result.string_values()
    assert MATERIALISED.value() == before
    root = result.items[0]
    assert root.children
    assert MATERIALISED.value() == before + 1
    assert root.children and root.doc and root.parent and root.subtree_size()
    assert MATERIALISED.value() == before + 1


def test_the_oracles_eager_copies_are_not_counted():
    before = MATERIALISED.value()
    for text in (SHAPES["nested"], SHAPES["nested flwor"]):
        assert all(item.children for item in run(text, "naive"))
    assert MATERIALISED.value() == before


def test_finish_span_counts_constructed_roots():
    result = engine().query(SHAPES["empty content"], trace=True)
    (span,) = result.trace.find_all("finish-phase")
    assert span.attrs["constructed"] == len(result) == 12


def test_eight_threads_build_one_tree():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            root = run(SHAPES["nested"]).items[0]
            before = MATERIALISED.value()
            barrier = threading.Barrier(8, timeout=10)
            seen = []

            def navigate(node=root):
                barrier.wait()
                seen.append((node.children[0], node.doc, node.string_value(),
                             serialize(node)))
            threads = [threading.Thread(target=navigate) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 8
            first = seen[0]
            assert all(entry[0] is first[0] and entry[1] is first[1]
                       and entry[2:] == first[2:] for entry in seen)
            assert MATERIALISED.value() == before + 1
            assert root.doc.nodes[1] is root
    finally:
        sys.setswitchinterval(interval)


def test_result_cache_hit_reserves_deferred_items_over_the_wire():
    text = SHAPES["several enclosed"]
    expected = run(text, "naive").serialize()
    with repro.connect(XML) as db:
        service = db.serve(workers=1)
        first = service.query(text)
        second = service.query(text)
        assert not first.cached and second.cached
        items = second.result.items
        assert all(isinstance(item, Constructed) and item.content is not None
                   for item in items)
        assert "".join(encode_item(item)["xml"] for item in items) == \
            second.result.serialize() == expected
        server = db.listen()
        with client_mod.connect(*server.address) as client:
            assert client.query(text).serialize() == expected


NUMBERS = "for $b in //b return number($b/p[last()])"


@pytest.mark.parametrize("strategy", ["auto", "naive"])
def test_float_atoms_use_xquery_spellings(strategy):
    assert run(NUMBERS, strategy).serialize() == "2 INF -0"
    assert run("for $b in //b[2] return number($b/p[1])",
               strategy).serialize() == "NaN"
    assert run("for $b in //b[1] return (0 - 1) div 0",
               strategy).serialize() == "-INF"
    assert run('for $b in //b[2] return <r>{number($b/p)}</r>',
               strategy).serialize() == "<r>NaN</r>"


def test_float_atoms_over_the_wire():
    with repro.connect(XML) as db:
        server = db.listen()
        with client_mod.connect(*server.address) as client:
            for text in (NUMBERS, "for $b in //b return number($b/p[1])",
                         "for $b in //b[1] return (1 div 0, (0 - 1) * 0)"):
                remote = client.query(text)
                local = db.query(text)
                assert remote.serialize() == local.serialize()
                assert remote.string_values() == local.string_values()
            assert remote.serialize() == "INF -0"
