"""The front end does each thing once, in one position space: one lazy
token stream over the whole query (the FLWOR productions drive the
XPath lexer instead of carving substrings out for it), contextual
keywords, absolute error positions — and the same ASTs as before."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import Engine, parse
from repro.analysis.corpus import EXAMPLE_QUERIES
from repro.datagen import DATASETS
from repro.errors import QuerySyntaxError
from repro.xpath import lexer as lexer_mod
from repro.xpath.ast import (
    Comparison,
    LocationPath,
    NameTest,
    NumberLiteral,
    RootContext,
    RootVariable,
    Step,
    walk,
)
from repro.xpath.lexer import STRING, VARIABLE, tokenize_query
from repro.xpath.parser import MAX_NESTING, parse_expr, parse_xpath
from repro.xquery.ast import (
    ElementConstructor,
    Enclosed,
    FLWOR,
    ForClause,
    LetClause,
    OrderSpec,
    Sequence,
    TextItem,
)
from repro.xquery.parser import parse_flwor, parse_query

#: text -> ``repr(parse_query(text))`` as produced by the parser this
#: front end replaced (commit 62af5ea), over the examples corpus, the 30
#: Appendix-A paths, the query strings of ``examples/*.py`` and the five
#: benchmark workloads' query templates.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "frontend_golden.json").read_text())
GOLDEN_TEXTS = [entry["text"] for entry in GOLDEN]
CONSTRUCTOR_FREE = [text for text in GOLDEN_TEXTS
                    if not re.search("<[A-Za-z_]", text)]


# ----------------------------------------------------------------------
# (a) Same ASTs.
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[f"{i}-{e['source']}" for i, e in enumerate(GOLDEN)])
def test_golden_ast_is_reproduced(entry):
    assert repr(parse_query(entry["text"])) == entry["ast"]


def test_golden_covers_the_corpus_and_the_appendix_paths():
    texts = set(GOLDEN_TEXTS)
    assert set(EXAMPLE_QUERIES.values()) <= texts
    for dataset in DATASETS.values():
        assert {spec.text for spec in dataset.queries} <= texts


# ----------------------------------------------------------------------
# (b) Keywords are contextual: elements named like them are queryable.
# ----------------------------------------------------------------------

KEYWORD_DOC = ("<r><a><order>1</order><return>2</return><for>3</for>"
               "<let>4</let><where>5</where></a></r>")


def _child(name):
    return Step("child", NameTest(name))


def _x(*names):
    return LocationPath(RootVariable("x"), tuple(map(_child, names)))


_ALL_A = LocationPath(RootContext(True), (Step("descendant", NameTest("a")),))


def _a(name):
    return LocationPath(RootContext(True), _ALL_A.steps + (_child(name),))


def _for_x(source, where=None, ret=_x()):
    return FLWOR((ForClause("x", source),), where, (), ret)


#: query text -> the hand-built AST of the same query.
KEYWORD_QUERIES = {
    "//a/order": _a("order"),
    "//a/for": _a("for"),
    "for $x in //a/order return $x": _for_x(_a("order")),
    "for $x in //a/return return $x": _for_x(_a("return")),
    "for $x in //a return $x/order": _for_x(_ALL_A, ret=_x("order")),
    "for $x in //a where $x/return = 2 return $x": _for_x(
        _ALL_A, Comparison("=", _x("return"), NumberLiteral(2.0))),
    "for $x in //a where $x/order = 1 return $x": _for_x(
        _ALL_A, Comparison("=", _x("order"), NumberLiteral(1.0))),
    "for $x in //a let $l := $x/let order by $x/order "
    "return <k>{$x/return}{$l}</k>": FLWOR(
        (ForClause("x", _ALL_A), LetClause("l", _x("let"))), None,
        (OrderSpec(_x("order")),),
        ElementConstructor("k", (), (
            Enclosed((_x("return"),)),
            Enclosed((LocationPath(RootVariable("l")),))))),
}


@pytest.mark.parametrize("text", KEYWORD_QUERIES)
def test_keyword_named_elements_end_to_end(text):
    engine = Engine(parse(KEYWORD_DOC))
    expected = engine.query(KEYWORD_QUERIES[text], strategy="naive")
    assert len(expected) == 1
    for strategy in ("auto", "naive", "pipelined", "stack"):
        assert engine.query(text, strategy=strategy).serialize() == \
            expected.serialize()


def test_clause_keywords_need_their_context():
    # ``for`` / ``let`` open a clause only before a ``$variable``...
    assert parse_query("for/let") == parse_expr("for/let")
    flwor = parse_flwor("for $for in //for for $let in $for/let "
                        "where $let/where return $let/return")
    assert [c.var for c in flwor.clauses] == ["for", "let"]
    # ...and the others only where an operator could stand.
    where = parse_flwor("for $x in //a where where = return "
                        "order by order return return").where
    assert str(where) == "/where = /return"


# ----------------------------------------------------------------------
# (c) Trivia between tokens is invisible; constructor content is not
# tokens at all.
# ----------------------------------------------------------------------

_TRIVIA = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "(: note :)",
                           " (: it's (: nested :) :) ", "\n    "])


def _lexeme(token, text):
    if token.kind == STRING:
        quote = text[token.pos]
        return f"{quote}{token.value}{quote}"
    return ("$" if token.kind == VARIABLE else "") + token.value


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), text=st.sampled_from(CONSTRUCTOR_FREE))
def test_trivia_between_tokens_never_changes_the_ast(data, text):
    tokens = tokenize_query(text)[:-1]
    pieces = [data.draw(_TRIVIA)]
    for token in tokens:
        pieces += [_lexeme(token, text), data.draw(_TRIVIA)]
    assert parse_query("".join(pieces)) == parse_query(text)


def test_constructor_content_never_reaches_the_lexer():
    text = "for $b in //b return <k>it's {$b/t} o'clock</k>"
    constructor = parse_flwor(text).return_expr
    assert constructor.content == (
        TextItem("it's "),
        Enclosed((LocationPath(RootVariable("b"), (_child("t"),)),)),
        TextItem(" o'clock"))
    engine = Engine(parse("<r><b><t>5</t></b></r>"))
    assert engine.query(text).serialize() == "<k>it's <t>5</t> o'clock</k>"
    # Sequences, nested constructors and comments inside the braces.
    nested = parse_query(
        "<a q='\"'>1 + 2 {(: c :) (//x, <b>{ //y }</b>) , 'z' } }</a>")
    assert nested.attrs == (("q", '"'),)
    text_before, enclosed, text_after = nested.content
    assert (text_before.text, text_after.text) == ("1 + 2 ", " }")
    assert isinstance(enclosed.exprs[0], Sequence) and len(enclosed.exprs) == 2


# ----------------------------------------------------------------------
# (d) Every error position is an offset into the text the caller sent.
# ----------------------------------------------------------------------

def _after(marker):
    return lambda text: text.index(marker) + len(marker)


MALFORMED = [
    ("for $x in //a where $x/b = = 1 return $x", _after("$x/b = ")),
    ("<r>{ for $x in //a return $x/ }</r>", _after("$x/ ")),
    ("(//a, //b", len),
    ("for $x in //a return <k>{ $x/b = }</k>", _after("= ")),
    ("for $x in //a order $x return $x", _after("order ")),
    ('for $x in //a where $x/b = "open return $x', _after("= ")),
    ("<bib>{ for $x in //a return <k>{$x}</j> }</bib>", _after("</")),
    ("for $x in //a[b = 1.2.3] return $x", _after("= ")),
    # The parse is two levels deep at the first predicate, so the
    # (MAX_NESTING - 1)th one is over the bound: its first token.
    ("//a" + "[b" * 400, lambda text: len("//a") + 2 * (MAX_NESTING - 2) + 1),
]


@pytest.mark.parametrize("text, offset", MALFORMED,
                         ids=[text[:24] for text, _ in MALFORMED])
def test_error_positions_are_absolute(text, offset):
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    assert info.value.query == text
    assert info.value.position == offset(text)


# ----------------------------------------------------------------------
# (e) Lexed once.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text", CONSTRUCTOR_FREE + [
    "for $x in //a return ($x/b, $x/c)",
    "(//a = //b) and ((//c), //d) = 1",
    "for $x in (//a) return ((($x/b)))",
])
def test_each_token_is_produced_exactly_once(text, monkeypatch):
    produced = []
    token = lexer_mod.Token

    def counting(kind, value, pos):
        produced.append((kind, value, pos))
        return token(kind, value, pos)

    monkeypatch.setattr(lexer_mod, "Token", counting)
    try:
        parse_query(text)
    except QuerySyntaxError:
        pass                # lexed once on the way to the error, too
    monkeypatch.undo()
    assert produced == [tuple(token) for token in tokenize_query(text)
                        ][:len(produced)]
    assert len(produced) == len(set(produced)) > 0


# ----------------------------------------------------------------------
# The printer round-trips: str(e) re-parses to e.
# ----------------------------------------------------------------------

def _xpath_parts(query):
    """Every XPath expression of a parsed query: (expression, parser
    that re-reads it) — clause sources are read at top level, all else
    (where, order keys, return paths, predicates) as expressions."""
    if isinstance(query, FLWOR):
        for clause in query.clauses:
            yield clause.source, parse_xpath
            for sub in list(walk(clause.source))[1:]:
                yield sub, parse_expr
        for expr in ([query.where] if query.where is not None else []) \
                + [spec.key for spec in query.order_by]:
            for sub in walk(expr):
                yield sub, parse_expr
        yield from _xpath_parts(query.return_expr)
    elif isinstance(query, (ElementConstructor, Sequence)):
        for sub in (query.exprs if isinstance(query, Sequence)
                    else query.subqueries()):
            yield from _xpath_parts(sub)
    else:
        for sub in walk(query):
            yield sub, parse_expr


#: The fontoxpath FLWOR shapes (SNIPPETS.md snippet 1), in this subset.
FONTOXPATH_SHAPES = [
    "for $i in //i let $e := 'Hello' return $e",
    "for $i in //i let $e := $i/e where $i = 1 return $e",
]


@pytest.mark.parametrize("text", GOLDEN_TEXTS + FONTOXPATH_SHAPES[1:])
def test_printer_round_trips_the_corpus(text):
    parts = list(_xpath_parts(parse_query(text)))
    assert parts
    for expr, reparse in parts:
        assert reparse(str(expr)) == expr, str(expr)


def test_printer_keeps_grouping_and_picks_the_quote():
    for text, printed in [
        ("(1 + 2) * 3", "(1 + 2) * 3"),
        ("1 + 2 * 3", "1 + 2 * 3"),
        ("8 - (4 - 2)", "8 - (4 - 2)"),
        ("8 - 4 - 2", "8 - 4 - 2"),
        ("(a = b) = c", "(/a = /b) = /c"),
        ("a = (b or c)", "/a = (/b or /c)"),
        ("(some $v in a satisfies $v) and b",
         "(some $v in /a satisfies $v) and /b"),
        ("a = 'say \"hi\"'", "/a = 'say \"hi\"'"),
        ('a = "it\'s"', '/a = "it\'s"'),
        ("a = 0.0000001", "/a = 0.0000001"),
    ]:
        expr = parse_expr(text)
        assert str(expr) == printed
        assert parse_expr(printed) == expr
    assert str(parse_xpath("doc('a\"b')//c")) == "doc('a\"b')//c"


_names = st.sampled_from(["a", "b", "c", "*", "@k", "text()", "node()", ".",
                          "..", "for", "return", "and", "div", "not", "count",
                          "following-sibling::b", "descendant::c", "self::a"])


def _paths(predicates):
    step = st.tuples(st.sampled_from(["/", "//"]), _names,
                     st.lists(predicates.map("[{}]".format), max_size=1)
                     ).map(lambda t: t[0] + t[1] + "".join(t[2]))
    return st.tuples(st.sampled_from(["", "", "$x", 'doc("d")', "."]),
                     st.lists(step, min_size=1, max_size=3)
                     ).map(lambda t: t[0] + "".join(t[1]))


def _compound(inner):
    binary = st.tuples(inner, st.sampled_from(
        ["=", "!=", "<", ">=", "<<", "is", "and", "or", "+", "-", "*",
         "div", "mod"]), inner).map(" ".join)
    call = st.tuples(st.sampled_from(["not", "count", "exists", "concat"]),
                     st.lists(inner, min_size=1, max_size=2)
                     ).map(lambda t: f"{t[0]}({', '.join(t[1])})")
    return st.one_of(
        _paths(inner), binary, inner.map("({})".format), call,
        st.tuples(_paths(inner), inner).map(
            lambda t: f"some $q in {t[0]} satisfies {t[1]}"),
        st.tuples(inner, inner, inner).map(
            lambda t: f"if ({t[0]}) then {t[1]} else {t[2]}"))


_atoms = st.one_of(
    st.sampled_from(["1", "2.5", "30", "0.0000001", "'x y'", '"it\'s"',
                     "'say \"hi\"'", "$x", "a", "//a/b", "@k", "."]))
_expression_texts = st.recursive(_atoms, _compound, max_leaves=8)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_expression_texts)
@example("$i = 1")
@example("'Hello'")
@example("(1 + 2) * 3")
@example("a - (b - (c - d)) * (e or f)")
def test_printer_round_trips_generated_expressions(text):
    try:
        expr = parse_expr(text)
    except QuerySyntaxError:
        return      # e.g. a chained comparison: not an expression
    assert parse_expr(str(expr)) == expr, str(expr)
