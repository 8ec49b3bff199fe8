"""Ablation A5: the update problem of the join-based approach (Section 2.1).

The paper: "if a single element is inserted or deleted, the encodings
of its subtree or all following nodes in the document may need to be
recomputed" — and the tag indexes over them rebuilt — whereas the
navigational/hybrid approach discovers structure dynamically and needs
no maintenance.

Measured here:

* relabeling cost grows with how early in the document the update
  lands (tail-length proportional);
* after an update, the join-based pipeline (index rebuild + TwigStack)
  pays the maintenance cost while the scan-based pipeline answers the
  same query with zero maintenance;
* both pipelines return identical results after the update.
"""

import pytest

from repro.engine import Engine
from repro.xmlkit import parse, serialize
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.update import DocumentUpdater

from conftest import dataset


def fresh_copy(name: str):
    prepared = dataset(name)
    return parse(serialize(prepared.doc.root))


def test_relabel_cost_proportional_to_tail():
    doc = fresh_copy("d2")
    addresses = doc.elements_by_tag("address")
    early_target = addresses[0]
    late_target = addresses[-1]

    early_doc = parse(serialize(doc.root))
    late_doc = parse(serialize(doc.root))
    fragment = parse("<country_id>CA</country_id>").root

    early = DocumentUpdater(early_doc).insert_subtree(
        early_doc.elements_by_tag("address")[0], fragment)
    late = DocumentUpdater(late_doc).insert_subtree(
        late_doc.elements_by_tag("address")[-1], fragment)

    assert early.nodes_relabeled > 10 * max(1, late.nodes_relabeled)
    assert early.nodes_relabeled > 0.9 * len(early_doc.nodes)
    _ = early_target, late_target


def test_join_pipeline_pays_maintenance_scan_pipeline_does_not():
    doc = fresh_copy("d3")
    engine = Engine(doc)
    query = "//item//street_address"

    # Warm both pipelines.
    reference = engine.query(query, strategy="pipelined").serialize()
    assert engine.query(query, strategy="twigstack").serialize() == reference

    updater = DocumentUpdater(doc)
    report = updater.insert_subtree(
        doc.elements_by_tag("item")[0],
        parse("<street_address>1 new way</street_address>").root)
    assert report.indexes_invalidated == 1

    # The scan-based pipeline needs no maintenance: one scan, right answer.
    counters = ScanCounters()
    scan_result = engine.query(query, strategy="pipelined", counters=counters)
    assert counters.scans_started == 1

    # The join-based pipeline must rebuild its index first (charged as
    # a full index build), then agrees.
    engine.index.build()
    ts_result = engine.query(query, strategy="twigstack")
    assert ts_result.serialize() == scan_result.serialize()
    assert len(ts_result) == len(scan_result)


@pytest.mark.parametrize("position", ["early", "late"])
def test_update_timing(benchmark, position):
    def run():
        doc = fresh_copy("d2")
        updater = DocumentUpdater(doc)
        targets = doc.elements_by_tag("address")
        target = targets[0] if position == "early" else targets[-1]
        report = updater.insert_subtree(
            target, parse("<country_id>CA</country_id>").root)
        return report.nodes_relabeled

    relabeled = benchmark(run)
    benchmark.extra_info["nodes_relabeled"] = relabeled
