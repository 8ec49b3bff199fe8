"""Seed -> input files.  Everything a workload reads from disk is
written here, before any clock starts, and digested into the record.

The seed moves *values and order* (prices, authors, parameter draws,
op order) but not document *shape*: on the recursive generators a new
shape moves a round's time by +-6 %, more than the regression bounds
the record is gated on, without telling a change anything.  Shape
variety comes from having five datasets and three corpora instead.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import sha256_text

#: workload -> (shelves, books per shelf) of its library corpus.
LIBRARY_SIZES = {
    "flwor_correlated": (40, 50),      # 14,042 nodes
    "compile_cold": (4, 10),           # 286 nodes
    "wire_closed": (40, 50),
    "snapshot_churn": (40, 50),
}
TABLE3_DATASETS = ("d1", "d2", "d3", "d4", "d5")


def library_xml(seed: int, shelves: int, books: int) -> str:
    """``<library>/<shelf genre>/<book id>/(author, title, price)``.

    Prices and authors are seeded *permutations* of fixed multisets
    (``serial % 97`` / ``serial % 211``), so every seed has exactly the
    same number of books under any price bound — result sizes and the
    quadratic bind of F3l do not move with the seed, only which books
    they are.
    """
    rng = random.Random(f"library:{seed}")
    total = shelves * books
    prices = [serial % 97 for serial in range(1, total + 1)]
    authors = [serial % 211 for serial in range(1, total + 1)]
    rng.shuffle(prices)
    rng.shuffle(authors)
    parts = ["<library>"]
    serial = 0
    for shelf in range(shelves):
        parts.append(f'<shelf genre="g{shelf % 7}">')
        for _ in range(books):
            parts.append(
                f'<book id="b{serial + 1}">'
                f"<author>author-{authors[serial]}</author>"
                f"<title>title-{serial + 1}</title>"
                f"<price>{prices[serial]}</price></book>")
            serial += 1
        parts.append("</shelf>")
    parts.append("</library>")
    return "".join(parts)


def table3_xml(name: str) -> str:
    """One of the paper's datasets at scale 1.0 under its Table-1
    identity (the generator's own default seed)."""
    from repro.datagen import DATASETS
    from repro.xmlkit import serialize

    return serialize(DATASETS[name].generate(scale=1.0).root)


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write the workload's XML files; returns ``{file name: sha256}``."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "table3_paths":
        texts = {f"{name}.xml": table3_xml(name) for name in TABLE3_DATASETS}
    else:
        shelves, books = LIBRARY_SIZES[workload]
        texts = {"library.xml": library_xml(seed, shelves, books)}
    digests = {}
    for filename, text in texts.items():
        (directory / filename).write_text(text, encoding="utf-8")
        digests[filename] = sha256_text(text)
    return digests
