"""Domain scenario 3: the stream context and the update problem.

Two operational concerns the paper discusses but does not benchmark:

1. **The stream context** (Section 5.2): the paper prefers the
   pipelined algorithm there — every NoK pattern is matched in one
   sequential pass, and the ``//``-joins merge that pass's output
   without reading the document again.
2. **Updates** (Section 2.1): region labels and tag indexes are
   materializations of structure; insert one element and watch how much
   relabeling/patching the join-based machinery needs, while the
   scan-based path needs none.

Run with::

    python examples/streaming_and_updates.py
"""

from repro import Engine, parse
from repro.datagen import generate_d3
from repro.xmlkit import DocumentUpdater
from repro.xmlkit.storage import ScanCounters


def main() -> None:
    doc = generate_d3(scale=0.1)
    engine = Engine(doc)
    print(f"corpus: {len(doc.nodes):,} nodes\n")

    print("== 1. The stream context: one sequential pass per query ==")
    for pattern in ("//item/attributes", "//author/name/last_name",
                    "//publisher/street_information/street_address"):
        counters = ScanCounters()
        result = engine.query(pattern, strategy="pipelined", counters=counters)
        print(f"  {pattern:48s} {len(result):4d} matches, "
              f"{counters.scans_started} pass over "
              f"{counters.nodes_scanned:,} nodes")
    print()

    print("== 2. The update problem, quantified ==")
    engine.index.build()
    # The updater forks the document (and its built index) and edits
    # only the fork; ``engine`` keeps answering from the original.
    updater = DocumentUpdater(doc)

    query = "//item//street_address"
    before = len(engine.query(query, strategy="pipelined"))
    print(f"  before update: {before} results")

    first_item = doc.elements_by_tag("item")[0]
    fragment = parse("<street_address>1 brand new way</street_address>").root
    report = updater.insert_subtree(first_item, fragment)
    print(f"  inserted 1 element near the document start:")
    print(f"    nodes relabeled : {report.nodes_relabeled:6d} "
          f"(of {len(updater.doc.nodes)} — the materialized-encoding cost)")
    print(f"    indexes patched : {report.indexes_invalidated}")

    updated = Engine(updater.doc)
    after_scan = len(updated.query(query, strategy="pipelined"))
    print(f"  scan-based answer, zero maintenance : {after_scan} results")
    after_ts = len(updated.query(query, strategy="twigstack"))
    print(f"  join-based answer after index patch  : {after_ts} results")
    assert after_scan == after_ts == before + 1
    assert len(engine.query(query, strategy="pipelined")) == before


if __name__ == "__main__":
    main()
