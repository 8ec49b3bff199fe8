"""Shared fixtures: the paper's example documents and small corpora."""

from __future__ import annotations

import pytest

from repro.xmlkit import parse


@pytest.fixture(autouse=True)
def _verify_every_compiled_plan(monkeypatch):
    """Run the invariant analyzer over every artifact bundle the suite
    builds.

    The engine already verifies trees at compile time and plans before
    caching; this fixture closes the remaining gap by wrapping
    ``prepare_artifacts`` where the engine calls it, so any test that
    drives the executor also exercises the decomposition and plan
    passes.  A suite-wide invariant regression then fails loudly at its
    source instead of as a wrong query result three layers later.
    """
    import repro.engine.executor as executor_mod
    import repro.engine.optimizer as optimizer_mod
    from repro.analysis import verify_artifacts
    from repro.pattern.artifact import prepare_artifacts

    def prepare_and_verify(tree):
        artifacts = prepare_artifacts(tree)
        verify_artifacts(artifacts)     # raises PlanInvariantError
        return artifacts

    monkeypatch.setattr(optimizer_mod, "prepare_artifacts", prepare_and_verify)
    monkeypatch.setattr(executor_mod, "prepare_artifacts", prepare_and_verify)

#: The document of the paper's Example 2 (whitespace matters for
#: deep-equal tests, so it is kept exactly as printed).
PAPER_BIB = """\
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

#: The FLWOR of the paper's Example 1.
PAPER_QUERY = """
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

#: A small bibliography with values, attributes and a book without
#: authors — convenient for predicate tests.
SMALL_BIB = """\
<bib>
 <book year="1994"><title>TCP/IP Illustrated</title>
   <author><last>Stevens</last><first>W.</first></author>
   <price>65.95</price></book>
 <book year="2000"><title>Data on the Web</title>
   <author><last>Abiteboul</last></author>
   <author><last>Buneman</last></author>
   <price>39.95</price></book>
 <book year="1999"><title>Economics</title><price>29.99</price></book>
</bib>
"""

#: The XML tree of the paper's Figure 3(b): a1 with children
#: (b1, c1, a1') where a1' ... actually the figure shows one a with
#: b1 c1 and a second a with b2[d1 d2] c2 b3[d3].  We encode the figure
#: faithfully: see tests/test_paper_examples.py.
FIGURE3_TREE = """\
<r>
 <a>
  <b/>
  <c/>
 </a>
 <a>
  <b><d/><d/></b>
  <c/>
  <b><d/></b>
 </a>
</r>
"""

#: A recursive document: sections nest inside sections.
RECURSIVE_DOC = """\
<doc>
 <section id="1">
  <title>one</title>
  <section id="1.1">
   <title>one-one</title>
   <section id="1.1.1"><title>deep</title><para>x</para></section>
  </section>
  <para>y</para>
 </section>
 <section id="2">
  <title>two</title>
  <para>z</para>
 </section>
</doc>
"""


@pytest.fixture
def paper_bib():
    return parse(PAPER_BIB)


@pytest.fixture
def small_bib():
    return parse(SMALL_BIB)


@pytest.fixture
def recursive_doc():
    return parse(RECURSIVE_DOC)


@pytest.fixture
def figure3_doc():
    return parse(FIGURE3_TREE)
