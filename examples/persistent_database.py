"""Domain scenario 4: a persistent XML database session.

Shows the storage-backed workflow: build a database from a generated
corpus, persist it in the succinct binary format, reopen it, query
with the rule-based optimizer, apply an update, and query again —
the full native-XML-database loop the paper's setting assumes.

Run with::

    python examples/persistent_database.py
"""

import os
import tempfile

import repro
from repro import parse
from repro.datagen import generate_d3
from repro.engine import Database
from repro.xmlkit import serialize


def main() -> None:
    corpus = generate_d3(scale=0.1)
    xml_text = serialize(corpus.root)

    print("== 1. Build and persist ==")
    db = Database(xml_text)
    path = os.path.join(tempfile.mkdtemp(), "catalog.btx")
    written = db.save(path)
    print(f"  XML text : {len(xml_text.encode('utf-8')):,} bytes")
    print(f"  binary   : {written:,} bytes "
          f"({written * 100 // len(xml_text.encode('utf-8'))}% of the text)")

    print("\n== 2. Reopen and query (the optimizer's plans) ==")
    db = repro.connect(path)  # sniffs the BTRX1 magic, loads the binary
    print(f"  {db!r}")
    for query in ("//item/attributes//length",
                  "//author[//last_name]/name/first_name"):
        result = db.query(query)
        print(f"  {query:42s} {len(result):4d} results  [{result.strategy}]")

    print("\n== 3. Update, then query again ==")
    first_item = db.doc.elements_by_tag("item")[0]
    with db.updater() as up:     # copy-on-write: published on a clean exit
        report = up.insert_subtree(
            first_item, parse("<subtitle>fresh edition</subtitle>").root)
    print(f"  inserted 1 element: {report.nodes_relabeled} nodes relabeled "
          "in the new version")
    result = db.query("//item[//subtitle]//isbn")
    print(f"  //item[//subtitle]//isbn now: {len(result)} results")

    print("\n== 4. Persist the updated state ==")
    written = db.save(path)
    reopened = repro.connect(path)
    assert len(reopened.query("//item[//subtitle]//isbn")) == len(result)
    print(f"  saved {written:,} bytes; reopened copy agrees.")


if __name__ == "__main__":
    main()
