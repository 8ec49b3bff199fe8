"""Domain scenario 1: bibliography curation over a dblp-style corpus.

Motivating workload from the paper's introduction: correlated path
expressions over bibliographic data.  This example runs three
editorial-audit queries over a generated dblp-like corpus:

1. find theses missing a ``school`` element (catalog hygiene),
2. pair proceedings with the same editor list (possible duplicates —
   Example 1's deep-equal pattern on real-ish data),
3. produce a per-venue publication digest with ordering.

Run with::

    python examples/bibliography_pairs.py
"""

from repro import Engine
from repro.datagen import generate_d5
from repro.xmlkit import compute_stats


def main() -> None:
    doc = generate_d5(scale=0.05, seed=7)
    stats = compute_stats(doc, with_size=False)
    print(f"corpus: {stats.n_elements} elements, "
          f"{stats.n_distinct_tags} tags, max depth {stats.max_depth}\n")

    engine = Engine(doc)

    print("== 1. Theses without a school element ==")
    result = engine.query(
        "for $t in //phdthesis where empty($t/school) return $t/title")
    for title in result.string_values():
        print("  missing school:", title)
    print(f"  plan: {result.plan}\n")

    print("== 2. Same-editor proceedings pairs (deep-equal correlation) ==")
    result = engine.query(
        """
        for $p1 in //proceedings, $p2 in //proceedings
        where $p1 << $p2
          and not($p1/title = $p2/title)
          and deep-equal($p1/editor, $p2/editor)
        return <pair>{ $p1/booktitle }{ $p2/booktitle }</pair>
        """)
    print(f"  {len(result)} suspicious pairs")
    for node in result.nodes()[:5]:
        print("  ", node.string_value())
    print()

    print("== 3. Ordered digest of journal articles ==")
    result = engine.query(
        """
        for $a in //article
        where $a/volume > 30
        order by $a/journal, $a/year descending
        return <entry>{ $a/journal }: { $a/title }</entry>
        """)
    for node in result.nodes()[:8]:
        print("  ", node.string_value())
    print(f"  ({len(result)} entries total)")


if __name__ == "__main__":
    main()
