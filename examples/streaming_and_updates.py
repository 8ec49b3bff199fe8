"""Domain scenario 3: streaming matches and the update problem.

Two operational concerns the paper discusses but does not benchmark:

1. **Streaming** (Section 5.2): match NoK patterns over raw XML text in
   a single pass through SAX events, without building a tree — the
   regime where the scan-based operators shine and index-based ones
   cannot run at all.
2. **Updates** (Section 2.1): region labels and tag indexes are
   materializations of structure; insert one element and watch how much
   relabeling/rebuilding the join-based machinery needs, while the
   scan-based path needs none.

Run with::

    python examples/streaming_and_updates.py
"""

from repro import Engine, parse
from repro.datagen import generate_d3
from repro.pattern import build_from_path, decompose
from repro.physical.streaming import StreamingNoKMatcher
from repro.xmlkit import DocumentUpdater, serialize
from repro.xmlkit.sax import parse_string
from repro.xpath import parse_xpath


def single_nok(path_text):
    dec = decompose(build_from_path(parse_xpath(path_text)))
    [nok] = [n for n in dec.noks if n.root.name != "#root"]
    return nok


def main() -> None:
    doc = generate_d3(scale=0.1)
    text = serialize(doc.root)
    print(f"corpus: {len(text):,} characters of raw XML\n")

    print("== 1. Streaming NoK matching (one pass, no tree) ==")
    for pattern in ("//item/attributes", "//author/name/last_name",
                    "//publisher/street_information/street_address"):
        handler = StreamingNoKMatcher(single_nok(pattern))
        parse_string(text, handler)
        print(f"  {pattern:48s} {handler.count:4d} matches, "
              f"peak state {handler.max_open}")
    print()

    print("== 2. The update problem, quantified ==")
    engine = Engine(doc)
    updater = DocumentUpdater(doc)
    engine.index.build()

    query = "//item//street_address"
    before = len(engine.query(query, strategy="pipelined"))
    print(f"  before update: {before} results")

    first_item = doc.elements_by_tag("item")[0]
    fragment = parse("<street_address>1 brand new way</street_address>").root
    report = updater.insert_subtree(first_item, fragment)
    print(f"  inserted 1 element near the document start:")
    print(f"    nodes relabeled : {report.nodes_relabeled:6d} "
          f"(of {len(doc.nodes)} — the materialized-encoding cost)")
    print(f"    indexes dropped : {report.indexes_invalidated}")

    after_scan = len(engine.query(query, strategy="pipelined"))
    print(f"  scan-based answer, zero maintenance : {after_scan} results")
    engine.index.build()  # the join-based pipeline pays this first
    after_ts = len(engine.query(query, strategy="twigstack"))
    print(f"  join-based answer after index rebuild: {after_ts} results")
    assert after_scan == after_ts == before + 1


if __name__ == "__main__":
    main()
