"""Compiled σ and π against the per-entry walks they replaced.

``reference_select`` and ``reference_project_entries`` are the σ and π
of the NestedList algebra as they were first written: σ interprets the
pattern per entry (``children()`` per level, an ``_is_on_path`` walk per
child) and copies every entry and group on its way; π looks each group
up by child vertex.  They run on the form that form was written for —
an :class:`Entry` per match of every vertex, with one list per slot
(:func:`full`), built from the same scan.  The library keeps a match as
its node and a slot as one run table per vertex, compiles both once per
(vertex, target), and σ replaces only the tables it changed.  Both must
give the same NestedLists on the Table-3 patterns and on the
sibling-chain family of ``tests/test_where_pushdown.py``: π on every
vertex, σ on every vertex that keeps its matches (the NoK root and each
returning vertex), and every result must keep the Figure-6 layout
(``tests.test_counters_contract.layout``).  σ on a vertex that keeps no
match has no runs to filter, and must raise.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.nested_list import project, projection_path
from repro.algebra.operators import select
from repro.datagen import DATASETS
from repro.engine import compile_query
from repro.errors import ReproError, UsageError
from repro.pattern.artifact import prepare_artifacts
from repro.pattern.blossom import MODE_MANDATORY
from repro.physical.nok_merge import merged_scan
from repro.physical.structural import left_projection
from repro.xmlkit import parse
from tests.test_counters_contract import layouts
from tests.test_where_pushdown import (CHAIN_LABELS, CHAIN_TEMPLATES,
                                       chain_document)


# ----------------------------------------------------------------------
# The references, and the all-entry form they read.
# ----------------------------------------------------------------------

class Entry:
    """One match in the all-entry form: the node plus, per pattern
    child, the list of its matches' entries (empty where no run)."""

    __slots__ = ("vertex", "node", "groups")

    def __init__(self, vertex, node, groups):
        self.vertex = vertex
        self.node = node
        self.groups = groups

    def group_for(self, child_vertex):
        for index, edge in enumerate(self.vertex.child_edges):
            if edge.child is child_vertex:
                return self.groups[index]
        raise KeyError(child_vertex.vid)


def reference_select(entries, target, predicate):
    result = []
    for entry in entries:
        filtered = _reference_filter(entry, target, predicate)
        if filtered is not None:
            result.append(filtered)
    return result


def _reference_filter(entry, target, predicate):
    if entry.vertex is target:
        if entry.node is not None and predicate(entry.node):
            return entry
        return None
    groups = []
    children = entry.vertex.children()
    for index, group in enumerate(entry.groups):
        child_vertex = children[index] if index < len(children) else None
        if child_vertex is None or not _is_on_path(child_vertex, target):
            groups.append(list(group))
            continue
        new_group = []
        for sub in group:
            filtered = _reference_filter(sub, target, predicate)
            if filtered is not None:
                new_group.append(filtered)
        edge = child_vertex.parent_edge
        if edge is not None and edge.mode == MODE_MANDATORY and not new_group:
            return None
        groups.append(new_group)
    return Entry(entry.vertex, entry.node, groups)


def _is_on_path(vertex, target):
    node = target
    while node is not None:
        if node is vertex:
            return True
        edge = node.parent_edge
        if edge is None or edge.cut:
            return False
        node = edge.parent
    return False


def reference_project_entries(entry, target):
    if entry.vertex is target:
        return [entry]
    path = []
    node = target
    while node is not entry.vertex:
        edge = node.parent_edge
        if edge is None or edge.cut:
            raise KeyError(target.vid)
        path.append(node)
        node = edge.parent
    current = [entry]
    for vertex in reversed(path):
        current = [sub for item in current for sub in item.group_for(vertex)]
    return current


# ----------------------------------------------------------------------
# Comparison helpers.
# ----------------------------------------------------------------------

def full(vertex, node, groups):
    """The match ``node`` of ``vertex`` in the form the references were
    written for, read off the run tables ``groups``."""
    return Entry(vertex, node, [
        [full(edge.child, sub, groups)
         for sub in groups.get(edge.child.vid, {}).get(node, ())]
        for edge in vertex.child_edges])


def shape(entry):
    """A full-form NestedList as plain data: vertex, node and groups,
    recursively."""
    return (entry.vertex.vid, entry.node.nid,
            tuple(tuple(shape(sub) for sub in group)
                  for group in entry.groups))


def nok_vertices(nok):
    """Every vertex of one NoK pattern tree (uncut edges only)."""
    out, todo = [], [nok.root]
    while todo:
        vertex = todo.pop()
        out.append(vertex)
        todo.extend(edge.child for edge in vertex.child_edges if not edge.cut)
    return out


def snapshot(groups):
    """Every table's content, copied."""
    return {vid: {parent: list(run) for parent, run in table.items()}
            for vid, table in groups.items()}


def check_query(doc, text, rng):
    """Scan the query's NoKs over ``doc`` and compare π with the
    reference on every vertex of every NoK, and σ on every vertex that
    keeps its matches (σ on one that keeps none must raise); returns
    the matches seen."""
    try:
        tree = compile_query(text).tree
    except ReproError:
        return 0
    if tree is None:
        return 0
    dec = prepare_artifacts(tree).decomposition
    groups = {}
    matches = merged_scan(dec.noks, doc, variables={}, groups=groups)
    content = snapshot(groups)
    seen = 0
    for nok in dec.noks:
        root, roots = nok.root, matches[nok.nok_id]
        before = layouts(nok, roots, groups)
        references = [full(root, node, groups) for node in roots]
        seen += len(roots)
        for target in nok_vertices(nok):
            path = projection_path(root, target)
            for node, reference in zip(roots, references, strict=True):
                want = reference_project_entries(reference, target)
                assert project([node], path, groups) == [e.node for e in want]
                assert [shape(full(target, n, groups))
                        for n in project([node], path, groups)] == \
                    [shape(e) for e in want]
            if target is not root and not target.returning:
                # σ's domain is a vertex that keeps its matches.
                with pytest.raises(UsageError):
                    select(roots, dict(groups), root, target,
                           lambda node: True)
                continue
            keep = {node.nid for node in doc.nodes if rng.random() < 0.6}
            predicate = keep.__contains__
            trial = dict(groups)
            compiled = select(roots, trial, root, target,
                              lambda node: predicate(node.nid))
            reference = reference_select(references, target,
                                         lambda node: predicate(node.nid))
            assert [shape(full(root, n, trial)) for n in compiled] == \
                [shape(e) for e in reference], (text, target.vid)
            layouts(nok, compiled, trial)
            if compiled == roots:
                assert compiled is roots       # untouched: not copied
            for vid, table in trial.items():
                if table == groups[vid]:
                    assert table is groups[vid]     # unchanged: shared
                for parent, run in table.items():
                    if run == groups[vid].get(parent):
                        assert run is groups[vid][parent]
        for edge in dec.inter_edges:
            if edge.nok_from == nok.nok_id:
                want = sorted({e.node.nid for entry in references
                               for e in reference_project_entries(
                                   entry, edge.parent)})
                assert [node.nid for node in left_projection(
                    roots, edge, groups)] == want
        # σ never mutates its input.
        assert layouts(nok, roots, groups) == before
    assert snapshot(groups) == content
    return seen


# ----------------------------------------------------------------------
# The two families.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(DATASETS))
def test_compiled_select_and_project_match_the_reference_on_table3(name):
    dataset = DATASETS[name]
    doc = dataset.generate(scale=0.05)
    rng = random.Random(f"sigma-pi:{name}")
    seen = sum(check_query(doc, spec.text, rng) for spec in dataset.queries)
    assert seen > 0


@pytest.mark.parametrize("recursive", [False, True],
                         ids=["flat", "recursive"])
@pytest.mark.parametrize("seed", range(4))
def test_compiled_select_and_project_match_the_reference_on_sibling_chains(
        seed, recursive):
    rng = random.Random(f"sigma-pi-chain:{seed}:{recursive}")
    doc = parse(chain_document(rng, recursive))
    for _ in range(30):
        chain = "/".join(
            ("following-sibling::" if i and rng.random() < 0.5 else "")
            + rng.choice(CHAIN_LABELS) for i in range(rng.randint(1, 3)))
        check_query(doc, rng.choice(CHAIN_TEMPLATES).format(C=chain), rng)


def test_select_on_a_vertex_outside_the_nok_returns_every_entry():
    doc = parse("<r><a><b/></a><a/></r>")
    dec = prepare_artifacts(
        compile_query("for $a in //a, $b in $a//b return $b").tree
    ).decomposition
    noks = {nok.root.name: nok for nok in dec.noks}
    groups = {}
    roots = merged_scan([noks["a"]], doc, variables={}, groups=groups)[
        noks["a"].nok_id]
    tables = dict(groups)
    kept = select(roots, groups, noks["a"].root, noks["b"].root,
                  lambda node: False)
    assert kept is roots and len(kept) == 2
    assert groups == tables
