"""Prepared queries and the plan cache: compile once, execute many.

Run with::

    python examples/prepared_queries.py

Covers the PR 2 serving path:

1. ``engine.prepare(text)`` compiles the query once (parse →
   BlossomTree → NoK decomposition → optimizer) and hands back a
   :class:`~repro.engine.prepared.PreparedQuery`;
2. ``plan.execute(params={...})`` runs it repeatedly with external
   ``$parameter`` values substituted at execution time;
3. plain ``engine.query(text)`` transparently reuses plans through the
   engine's LRU plan cache, keyed by the document's shape: a commit
   that keeps the shape keeps the plans, one that changes it re-plans;
4. the cache's hit/miss/eviction counters show up in the Prometheus
   exposition alongside the other engine metrics.
"""

from repro import Database, Engine, parse
from repro.obs.export import prometheus_text
from repro.obs.metrics import REGISTRY

BIB = """
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>Economics</title>
    <price>29.99</price>
  </book>
</bib>
"""

#: Shaped exactly like the ``Economics`` book, whitespace included.
FRESH = """<book year="2001">
    <title>Fresh Arrival</title>
    <price>19.99</price>
  </book>"""


def main() -> None:
    engine = Engine(parse(BIB))

    print("== 1. Prepare once, execute with different bindings ==")
    plan = engine.prepare(
        "for $b in //book where $b/price < $max return $b/title")
    print(f"parameters: {sorted(plan.parameters)}")
    for threshold in (30.0, 50.0, 100.0):
        titles = plan.execute(params={"max": threshold}).string_values()
        print(f"  $max = {threshold:6.2f} -> {titles}")

    print("\n== 2. The transparent plan cache ==")
    engine.query("//book[author]/title")            # compiles, cached
    engine.query("//book[author]/title")            # served from cache
    engine.query("\n  //book[author]/title\n  ")    # normalized: same plan
    stats = engine.plan_cache.stats()
    print(f"cache after three query() calls: {stats}")

    result = engine.query("//book[author]/title", trace=True)
    span = result.trace.root
    print(f"query span plan-cache attribute: {span.attrs['plan-cache']}")
    print(f"titles: {result.string_values()}")

    print("\n== 3. Plans follow the document's shape ==")
    db = Database(BIB)
    db.query("//book/title")
    with db.updater() as up:     # swap Economics for a same-shaped book
        up.insert_subtree(up.doc.root, parse(FRESH).root)
        up.delete_subtree(up.doc.elements_by_tag("book")[2])
    result = db.query("//book/title", trace=True)
    print(f"shape kept:    plan-cache={result.trace.root.attrs['plan-cache']}"
          f" titles={result.string_values()}")
    with db.updater() as up:     # a book without a price: a new shape
        up.insert_subtree(
            up.doc.root, parse("<book><title>Untitled</title></book>").root)
    result = db.query("//book/title", trace=True)
    print(f"shape changed: plan-cache={result.trace.root.attrs['plan-cache']}"
          f" titles={result.string_values()}")

    print("\n== 4. Plan-cache counters in the Prometheus exposition ==")
    exposition = prometheus_text(REGISTRY)
    for line in exposition.splitlines():
        if line.startswith("repro_plan_cache"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
