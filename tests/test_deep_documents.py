"""A document nested deeper than the interpreter's recursion limit.

The parser has always read one; every layer after it must too: query,
serialize (compact and pretty, plain and constructed results), the
binary format, the updater's relabeling pass and ``deep-equal``.  Each
walks with an explicit stack, or (the serializers) falls back to one
when recursion runs out — never a ``RecursionError``.
"""

import sys

import repro
from repro.engine.database import Database
from repro.xmlkit.writer import pretty
from repro.xmlkit.tree import deep_equal
from repro.xmlkit.update import DocumentUpdater

DEPTH = 5_000
XML = "<a>" * DEPTH + "<leaf>x</leaf>" + "</a>" * DEPTH


def labels_are_consistent(doc) -> bool:
    """Pre-order nids and region labels, as the builder assigns them."""
    return all(node.nid == index for index, node in enumerate(doc.nodes)) \
        and all(child.level == node.level + 1
                and node.start < child.start and child.end < node.end
                for node in doc.nodes for child in node.children)


def test_deep_document_through_every_layer(tmp_path):
    assert DEPTH > sys.getrecursionlimit()
    doc = repro.parse(XML)

    with repro.connect(doc) as db:
        assert db.query("//leaf").serialize() == "<leaf>x</leaf>"
        assert len(db.query("//a/leaf", strategy="pipelined")) == 1
        assert db.query("/a").serialize() == XML
        for strategy in ("auto", "naive"):
            constructed = db.query("for $a in /a return <r>{$a}</r>",
                                   strategy=strategy)
            assert constructed.serialize() == f"<r>{XML}</r>"
        assert pretty(doc.root).count("\n") == 2 * DEPTH + 1
        path = tmp_path / "deep.btx"
        db.save(path)

    with Database.open(path) as reopened:
        assert reopened.query("//leaf").serialize() == "<leaf>x</leaf>"
        assert deep_equal(reopened.doc.root, doc.root)

    updater = DocumentUpdater(doc)
    base, doc = doc, updater.doc
    leaf = doc.elements_by_tag("leaf")[0]
    updater.insert_subtree(leaf.parent, repro.parse("<new/>").root)
    updater.insert_subtree(doc.root, repro.parse(XML).root)
    assert labels_are_consistent(doc)
    assert len(doc.nodes) == 1 + 2 * (DEPTH + 2) + 1
    assert not deep_equal(doc.root, repro.parse(XML).root)

    updater.delete_subtree(doc.root.children[-1])
    updater.delete_subtree(doc.elements_by_tag("new")[0])
    assert labels_are_consistent(doc)
    assert deep_equal(doc.root, repro.parse(XML).root)
    assert len(base.nodes) == len(doc.nodes) and labels_are_consistent(base)
