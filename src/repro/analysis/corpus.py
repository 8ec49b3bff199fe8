"""The examples corpus: named queries the analyzer must pass clean.

One entry per representative query shape the examples and the paper
exercise — bare paths with predicates, multi-variable FLWORs with
crossing edges, let-bound sequences, external ``$parameters``.  The CLI
(``python -m repro.analysis --examples``), the ``analyze`` CI job and
the corpus-clean test all iterate this table, so a regression in the
builder or decomposer that produces a malformed artifact
for any of these shapes fails loudly with a rule ID.
"""

from __future__ import annotations

__all__ = ["EXAMPLE_QUERIES"]

#: name -> query text.  Every query compiles to a BlossomTree (no
#: navigational-fallback entries: those produce no artifacts to verify).
EXAMPLE_QUERIES: dict[str, str] = {
    "path-simple": "//book/title",
    "path-existential": "//book[author]/title",
    "path-value": '//book[price > 30]/title',
    "path-nested-value": '//book[author/last = "Buneman"]/title',
    "path-double-descendant": "//book[author]//last",
    "path-branching": "//item[//subtitle]//isbn",
    "path-sibling": "//book/title/following-sibling::author",
    "path-attribute": '//book[@year = "2000"]/title',
    "flwor-single": """
        for $b in //book
        where $b/price > 30
        return $b/title
    """,
    "flwor-let": """
        for $b in //book
        let $a := $b/author
        return $a/last
    """,
    "flwor-order": """
        for $b in //book
        order by $b/title
        return $b/title
    """,
    "flwor-join": """
        for $b1 in //book, $b2 in //book
        where $b1 << $b2 and $b1/author/last = $b2/author/last
        return $b1/title
    """,
    "flwor-deep-equal": """
        for $b1 in doc("bib.xml")//book, $b2 in doc("bib.xml")//book
        let $a1 := $b1/author
        let $a2 := $b2/author
        where $b1 << $b2 and deep-equal($a1, $a2)
        return $b1/title
    """,
    "flwor-constructor": """
        <pairs>{
        for $b1 in doc("bib.xml")//book, $b2 in doc("bib.xml")//book
        where $b1 << $b2 and not($b1/title = $b2/title)
        return <pair>{ $b1/title }{ $b2/title }</pair>
        }</pairs>
    """,
    "flwor-external-parameter": """
        for $b in //book
        where $b/author/last = $who
        return $b/title
    """,
    "flwor-dereference": """
        for $b in //book
        for $l in $b/author/last
        return $l
    """,
}
