"""The paper's Example 1: correlated path expressions end to end.

Reproduces the book-pair query (same-author pairs of distinct books)
against the document of Example 2, showing:

* the BlossomTree built from the FLWOR (Figure 1),
* its decomposition into NoK pattern trees + inter edges (Algorithm 1),
* each NoK's returning vertices — the names Section 3.3 gives global
  Dewey IDs; here the pattern vertex itself is the name,
* the final result — identical to the paper's printed output — under
  several physical strategies.

Run with::

    python examples/example1_bookpairs.py
"""

from repro import Engine, parse
from repro.pattern import build_blossom_tree, decompose
from repro.xquery import parse_flwor

DOCUMENT = """
<bib>
<book>
<title> Maximum Security </title>
</book>
<book>
<title> The Art of Computer Programming </title>
<author>
<last> Knuth </last>
<first> Donald </first>
</author>
</book>
<book>
<title> Terrorist Hunter </title>
</book>
<book>
<title> TeX Book </title>
<author>
<last> Knuth </last>
<first> Donald </first>
</author>
</book>
</bib>
"""

QUERY = """
<bib>
{
for $book1 in doc("bib.xml")//book,
    $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2
  and not($book1/title = $book2/title)
  and deep-equal($aut1, $aut2)
return
  <book-pair>
    { $book1/title }
    { $book2/title }
  </book-pair>
}
</bib>
"""


def main() -> None:
    doc = parse(DOCUMENT)

    print("== The BlossomTree (Figure 1) ==")
    flwor = parse_flwor(QUERY)
    tree = build_blossom_tree(flwor)
    print(tree.describe())

    print("\n== Decomposition into NoK pattern trees (Algorithm 1) ==")
    decomposition = decompose(tree)
    print(decomposition.describe())

    print("\n== Returning vertices per NoK (Section 3.3's named nodes) ==")
    for nok in decomposition.noks:
        names = ", ".join(
            f"V{v.vid}:{v.name}" + "".join(f" ${var}" for var in v.variables)
            for v in nok.vertices if v.returning)
        print(f"  NoK{nok.nok_id}: {names}")

    print("\n== Query result (identical under every strategy) ==")
    engine = Engine(doc)
    reference = None
    for strategy in ("naive", "pipelined", "stack", "bnlj", "auto"):
        result = engine.query(QUERY, strategy=strategy)
        text = result.serialize()
        status = "OK" if reference in (None, text) else "MISMATCH!"
        reference = reference or text
        print(f"  {strategy:10s} {status}")
    print()
    print(engine.query(QUERY).pretty())


if __name__ == "__main__":
    main()
