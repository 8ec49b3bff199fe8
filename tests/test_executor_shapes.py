"""Executor stress tests: FLWOR shapes that exercise every pipeline path.

Each test runs a query shape against the naive oracle under all the
BlossomTree join strategies; shapes are chosen to hit specific executor
machinery (optional cut edges, chains across several NoKs, multiple
mandatory semi-joins, crossing-edge mixes, empty intermediates).
"""

import pytest

from repro.engine import Engine, compile_query
from repro.xmlkit import parse

DOC = """
<shop>
  <dept name="books">
    <item><name>tcp</name><tag><label>net</label></tag><price>65</price></item>
    <item><name>web</name><price>39</price></item>
    <sub>
      <item><name>ai</name><tag><label>ml</label></tag><price>80</price></item>
    </sub>
  </dept>
  <dept name="music">
    <item><name>jazz</name><price>20</price></item>
  </dept>
  <dept name="empty"/>
</shop>
"""

STRATEGIES = ["pipelined", "stack", "bnlj", "nl", "cost"]


@pytest.fixture(scope="module")
def engine():
    return Engine(parse(DOC))


def assert_all_agree(engine, query):
    reference = engine.query(query, strategy="naive").serialize()
    for strategy in STRATEGIES:
        got = engine.query(query, strategy=strategy).serialize()
        assert got == reference, f"{strategy}: {got!r} != {reference!r}"
    return reference


class TestAnchoringShapes:
    def test_descendant_for_from_variable(self, engine):
        # $i anchored at $d through a cut edge (optional NoK chains).
        assert_all_agree(engine,
                         "for $d in //dept, $i in $d//item return $i/name")

    def test_let_with_descendant_steps(self, engine):
        # let builds an optional cut edge: empty groups must survive.
        assert_all_agree(engine,
                         "for $d in //dept let $l := $d//label "
                         "return <r>{ count($l) }</r>")

    def test_three_level_variable_chain(self, engine):
        assert_all_agree(engine,
                         "for $d in //dept, $i in $d//item, $t in $i/tag, "
                         "$l in $t/label return $l")

    def test_chain_with_intermediate_unbound_vertices(self, engine):
        # path with two steps between variables: dept -> sub -> item.
        assert_all_agree(engine,
                         "for $d in //dept, $i in $d/sub/item return $i/name")

    def test_for_anchored_at_let(self, engine):
        assert_all_agree(engine,
                         "let $items := //item for $p in $items/price "
                         "return $p")

    def test_let_anchored_at_let(self, engine):
        assert_all_agree(engine,
                         "let $depts := //dept let $names := $depts/item "
                         "return count($names)")

    def test_empty_intermediate_results(self, engine):
        assert_all_agree(engine,
                         "for $d in //dept, $x in $d//nonexistent return $x")

    def test_variable_used_twice_in_where(self, engine):
        assert_all_agree(engine,
                         "for $i in //item "
                         "where $i/price > 30 and $i/price < 70 "
                         "return $i/name")


class TestCorrelationShapes:
    def test_value_join_between_variables(self, engine):
        assert_all_agree(engine,
                         "for $a in //item, $b in //item "
                         "where $a << $b and $a/price < $b/price "
                         "return <p>{ $a/name }{ $b/name }</p>")

    def test_structural_and_value_mix(self, engine):
        assert_all_agree(engine,
                         "for $d in //dept, $i in //item "
                         "where $i/price > 50 and $d/@name = \"books\" "
                         "return <p>{ $i/name }</p>")

    def test_deep_equal_on_derived_paths(self, engine):
        assert_all_agree(engine,
                         "for $a in //item, $b in //item "
                         "where $a << $b and deep-equal($a/tag, $b/tag) "
                         "return <p>{ $a/name }{ $b/name }</p>")

    def test_is_and_isnot(self, engine):
        assert_all_agree(engine,
                         "for $a in //dept, $b in //dept "
                         "where $a isnot $b return <p/>")

    def test_or_in_where_goes_residual(self, engine):
        query = ("for $i in //item "
                 'where $i/price < 25 or $i/name = "ai" '
                 "return $i/name")
        assert_all_agree(engine, query)
        dispositions = [c.disposition for c in compile_query(query).tree.where]
        assert dispositions == ["residual"], (
            "an or is one conjunct no single vertex test expresses: "
            f"nothing is pushed, the finish decides it; got {dispositions}")

    def test_quantifier_with_join(self, engine):
        assert_all_agree(engine,
                         "for $d in //dept "
                         "where some $i in $d//item satisfies $i/price > 60 "
                         "return $d/@name")


class TestOutputShapes:
    def test_multiple_enclosed_and_nesting(self, engine):
        assert_all_agree(engine,
                         "for $i in //item return "
                         "<out a=\"x\"><n>{ $i/name }</n>{ $i/price }</out>")

    def test_order_by_derived_key(self, engine):
        assert_all_agree(engine,
                         "for $i in //item order by $i/price descending "
                         "return $i/name")

    def test_nested_flwor_in_return(self, engine):
        assert_all_agree(engine,
                         "for $d in //dept return <d>{"
                         " for $i in $d//item return $i/name }</d>")

    def test_attribute_values_in_output(self, engine):
        assert_all_agree(engine,
                         "for $d in //dept return <r>{ $d/@name }</r>")
