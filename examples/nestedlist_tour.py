"""A tour of the paper's machinery on Figures 3-7.

Walks through the internal representations step by step:

* the NoK pattern tree of Figure 3(a) and its matching against the
  Figure 3(b)-style XML tree,
* the NestedList notation of Figure 4 (rendered exactly),
* the physical pointer structure of Figure 6 (every match is its node;
  a child pointer is a run table per pattern vertex),
* the two query plans of Figures 5 and 7 (merge vs nested-loop joins),
* Example 5's order-preservation counterexample.

Run with::

    python examples/nestedlist_tour.py
"""

from repro import parse
from repro.algebra import project, projection_path
from repro.algebra.nested_list import sexpr
from repro.pattern import build_blossom_tree, decompose
from repro.physical import NoKMatcher, nested_loop_pairs
from repro.xquery import parse_flwor


def labeller():
    counters = {}

    def label(node):
        counters[node.tag] = counters.get(node.tag, 0) + 1
        return f"{node.tag}{counters[node.tag]}"

    return label


def main() -> None:
    print("== Figure 3: NoK pattern (a (b (d)) (c)) vs an XML tree ==")
    doc = parse("<a><b/><b><d/><d/></b><b><d/></b><c/><c/></a>")
    flwor = parse_flwor(
        'for $a in doc("x")/a let $b := $a/b let $d := $b/d '
        "let $c := $a/c return $a")
    tree = build_blossom_tree(flwor)
    print(tree.describe())

    dec = decompose(tree)
    matcher = NoKMatcher(dec.noks[0], doc, variables={})
    [match] = matcher.matches()
    groups = matcher.groups
    a_vertex = tree.var_vertex["a"]
    [a_node] = groups[a_vertex.vid][match]

    print("\n== Figure 4: the NestedList in the paper's notation ==")
    print(" ", sexpr(a_node, a_vertex, groups, labeller()))

    print("\n== Figure 6: group lists (sibling/child pointers) ==")
    b_vertex = tree.var_vertex["b"]
    d_path = projection_path(b_vertex, tree.var_vertex["d"])
    for i, b_node in enumerate(groups[b_vertex.vid][a_node], 1):
        ds = project([b_node], d_path, groups)
        print(f"  b{i}: {len(ds)} d-children "
              f"(nids {[d.nid for d in ds]})")

    print("\n== Example 5 / Figure 7: <<-join breaks document order ==")
    bib = parse("<bib><book i='1'/><book i='2'/><book i='3'/>"
                "<book i='4'/></bib>")
    books = bib.elements_by_tag("book")
    pairs = nested_loop_pairs(books, books, lambda x, y: x.nid < y.nid)
    projected = [y.attrs["i"] for _, y in pairs]
    print(f"  projection on the 2nd component: {projected}")
    print(f"  document-ordered? {projected == sorted(projected)} "
          "(the paper's counterexample)")


if __name__ == "__main__":
    main()
