"""Where-conjunct pushdown: decided in the scan, discharged when exact.

Two halves.  The *generated differential* is the safety net the
discharge needs: a ``pushed-exact`` conjunct is no longer evaluated per
tuple, so every strategy × executor × prepared-vs-text must equal the
navigational oracle (``strategy="naive"``, which runs none of the
pushdown code) on documents and operands built to hit the coercion
corners — missing, repeated, blank, padded, non-numeric and exponent
prices, repeated ids, and ``$p`` bound to every type
``normalize_bindings`` admits; and on two-variable value conjuncts
(``$a/x = $b/y``: the bind phase's hash join on ``=`` crossing edges,
next to every shape that must *not* join) over numeric and text
spellings of one value; and on ``following-sibling`` chains over
present, absent and misplaced labels in every clause position.  The
*deterministic guards* pin what the tentpole moved on the benchmark's
own shapes: every bound tuple survives, the compiled where is gone,
twin NoKs are matched once, and no engine path scans a late-bound plan
without the request's bindings.
"""

from __future__ import annotations

import pickle
import random
import threading
from collections import Counter

import pytest

import repro
from repro.engine import Engine, compile_query
from repro.engine import executor as executor_module
from repro.engine.executor import FLWORExecutor
from repro.errors import ReproError
from repro.pattern.artifact import prepare_artifacts
from repro.algebra.operators import select
from repro.physical import nok
from repro.physical.nok_merge import merged_scan
from repro.physical.process_scan import ProcessScanBackend
from repro.xmlkit import parse
from repro.xmlkit.storage import ScanCounters
from repro.xpath import compile as compile_module

# ----------------------------------------------------------------------
# The generator.
# ----------------------------------------------------------------------

PRICES = ["1", "2", "03", "4.0", " 5 ", "x", "", "1e1"]
IDS = ["b1", "b2", "b3", "2", "x", "b1"]
GENRES = ["g1", "g2", "2", "x"]
WORDS = ["a", "b", "2", "x", " 2 "]
OPS = ["=", "!=", "<", "<=", ">", ">="]
LITERALS = ["2", "2.0", '"2"', '"x"', '""']

#: (path, the variables it needs)
PATHS = [
    ("$b/price", "b"), ("$b/@id", "b"), ("$b", "b"), ("$b/info/price", "b"),
    ("$b//price", "b"), ("$b/price/text()", "b"), ("$b/*", "b"),
    ("$b/price[. > 1]", "b"), ("$s/@genre", "s"), ("$t", "t"),
    ("$b/price/following-sibling::price", "b"),
    ("$b/author/following-sibling::*", "b"),
]

#: (variables bound, text with a ``{W}`` hole)
TEMPLATES = [
    ("b", "for $b in //book where {W} return $b"),
    ("sb", "for $s in //shelf, $b in $s/book where {W} "
           "return <hit>{{$b/title}}</hit>"),
    ("bt", "for $b in //book let $t := $b/title where {W} "
           "order by $b/author return <r>{{$t}}</r>"),
    ("sbt", "for $s in //shelf for $b in $s/book let $t := $b/title "
            "where {W} and $b/price > 1 return <p>{{$t}}{{$s/@genre}}</p>"),
    # ``following-sibling`` steps in the binding path: a same-tag
    # successor, a ``*`` chain, and a predecessor kept by a predicate.
    ("b", "for $b in //shelf/book/following-sibling::book where {W} "
          "return $b"),
    ("bt", "for $b in //shelf/*/following-sibling::*/following-sibling::* "
           "let $t := $b/title where {W} return <r>{{$t}}</r>"),
    ("sb", "for $s in //shelf, $b in $s/book[following-sibling::book] "
           "where {W} return <hit>{{$b/title}}</hit>"),
]

#: One number spelled six ways, its neighbour, text and blank: ``=`` on
#: atoms from nodes is numeric when both sides parse, textual (after
#: trimming) when neither does, false across.
SPELLINGS = ["1", "1.0", " 1 ", "01", "1e0", "-0", "0", "a", " a", ""]

#: Sides of a two-variable conjunct over ``{v}``: those that hang under
#: ``{v}`` by uncut edges (what a join may hash), and those that must
#: keep the per-tuple path — a cut edge, an attribute, a function.
JOIN_SIDES = ["{v}/x", "{v}/y", "{v}/x", "{v}/y", "{v}/author",
              "{v}/price", "{v}/info/price", "{v}", "{v}/y[. != 0]",
              "{v}/x/following-sibling::y"]
KEPT_SIDES = ["{v}//price", "{v}/@id", "{v}/x/text()", "string({v}/x)"]

#: (the two compared variables, text with a ``{W}`` hole): both clause
#: orders, a selective outer, each side variable-anchored in turn, a
#: let-bound side, a third variable in between.
JOIN_TEMPLATES = [
    ("ab", "for $a in //book[x], $b in //shelf[@genre = 'g1']/book "
           "where {W} return <p>{{$a/title}}{{$b/@id}}</p>"),
    ("ba", "for $a in //shelf[@genre = 'g2']/book, $b in //book[y] "
           "where {W} return <p>{{$a/@id}}{{$b/title}}</p>"),
    ("ab", "for $s in //shelf[@genre != 'x'], $a in $s/book, "
           "$b in //book[price > 1] where {W} "
           "return <p>{{$s/@genre}}{{$a/@id}}{{$b/@id}}</p>"),
    ("ab", "for $a in //book[x], $s in //shelf[@genre = 'g1'], "
           "$b in $s/book where {W} return <p>{{$a/@id}}{{$b/@id}}</p>"),
    ("at", "for $a in //book[y], $b in //shelf[@genre = 'g2']/book "
           "let $t := $b/x where {W} order by $a/title "
           "return <p>{{$a/@id}}{{$t}}</p>"),
    ("ab", "for $a in //shelf[@genre = 'g1']/book, $b in //book[x][y] "
           "where {W} order by $b/price, $a/@id "
           "return <p>{{$a/@id}}{{$b/@id}}</p>"),
]

STRATEGIES = ["auto", "pipelined", "stack", "bnlj", "nl"]
PARALLEL_EXECUTORS = ["threads:2", "processes:2"]


def generate_document(rng: random.Random) -> str:
    """A small library: 0–2 ``price`` children per book (plus a nested
    ``info/price``), 0–2 authors, 0–2 ``x`` and ``y`` (multi-valued and
    empty join sides), repeated ids; > 256 nodes, so the
    ``parallel`` strategy really cuts it in two."""
    shelves = []
    for _ in range(rng.randint(6, 7)):
        books = []
        for _ in range(rng.randint(5, 7)):
            parts = [f"<author>{rng.choice(WORDS)}</author>"
                     for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.9:
                parts.append(f"<title>t{rng.randint(1, 9)}</title>")
            parts += [f"<price>{rng.choice(PRICES)}</price>"
                      for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.4:
                parts.append(
                    f"<info><price>{rng.choice(PRICES)}</price></info>")
            parts += [f"<{tag}>{rng.choice(SPELLINGS)}</{tag}>"
                      for tag in "xy" for _ in range(rng.randint(0, 2))]
            rng.shuffle(parts)
            books.append(f'<book id="{rng.choice(IDS)}">{"".join(parts)}'
                         "</book>")
        shelves.append(f'<shelf genre="{rng.choice(GENRES)}">'
                       f'{"".join(books)}</shelf>')
    return f'<library>{"".join(shelves)}</library>'


def generate_conjunct(rng: random.Random, bound: str, late: bool) -> str:
    path = rng.choice([p for p, needs in PATHS if needs in bound])
    operand = "$p" if late else rng.choice(LITERALS)
    left, right = (path, operand) if rng.random() < 0.7 else (operand, path)
    return f"{left} {rng.choice(OPS)} {right}"


def generate_query(rng: random.Random, late: bool) -> str:
    bound, template = rng.choice(TEMPLATES)
    where = generate_conjunct(rng, bound, late)
    if rng.random() < 0.4:
        # The second conjunct is a literal one: a query has one $p.
        other = generate_conjunct(rng, bound, False)
        where = (f"{where} and {other}" if rng.random() < 0.5
                 else f"{other} and {where}")
    return template.format(W=where)


def generate_join(rng: random.Random) -> tuple[str, str | None]:
    """A query whose where holds a two-variable value conjunct, and —
    where that must not change the answer — the same query with the
    conjunct's operands swapped."""
    (u, v), template = rng.choice(JOIN_TEMPLATES)

    def side(var: str) -> str:
        return "$t" if var == "t" else rng.choice(
            KEPT_SIDES if rng.random() < 0.15 else JOIN_SIDES
        ).format(v=f"${var}")
    left, right = side(u), side(v)
    if rng.random() < 0.5:
        left, right = right, left
    op = rng.choice(["="] * 8 + ["!=", "<"])
    shape = "not({})" if rng.random() < 0.15 else "{}"
    others = [other for other, chance in (
        ("$a << $b", 0.3), ("$a/price > 1", 0.3),
        ("$a/y = $b/x", 0.2))
        if rng.random() < chance]
    at = rng.randint(0, len(others))

    def where(one: str, two: str) -> str:
        return template.format(W=" and ".join(
            others[:at] + [shape.format(f"{one} {op} {two}")] + others[at:]))
    # ``=`` and ``!=`` on data values are symmetric (general comparison
    # is existential over both atom sets); ``<`` is not.
    return where(left, right), None if op == "<" else where(right, left)


def bindings_for(doc) -> list[dict]:
    """``$p`` as every type ``normalize_bindings`` admits."""
    prices = [n for n in doc.nodes if n.tag == "price"]
    authors = [n for n in doc.nodes if n.tag == "author"]
    return [{"p": value} for value in (
        2, 2.0, "2", "x", "", True, False,
        prices[1], [prices[0], authors[0], prices[-1]], [])]


def outcome(run) -> str:
    """The serialized answer, or the error's class."""
    try:
        return run().serialize()
    except ReproError as exc:
        return f"<<{type(exc).__name__}>>"


def check_example(db, text: str, params: dict | None = None,
                  strategies=STRATEGIES, refusals=()) -> str:
    """One example on every engine path against the oracle; returns the
    oracle's answer.  A forced strategy may answer one of ``refusals``
    (typed errors) instead; ``auto`` never refuses."""
    expected = outcome(lambda: db.query(text, params=params,
                                        strategy="naive"))
    where = f"{text!r} params={params!r}"
    for options in [{"strategy": name} for name in strategies] + [
            {"strategy": "parallel", "executor": executor}
            for executor in PARALLEL_EXECUTORS]:
        got = outcome(lambda: db.query(text, params=params, **options))
        assert got == expected or (options["strategy"] != "auto"
                                   and got in refusals), f"{options} {where}"
    got = outcome(lambda: db.prepare(text).execute(params=params))
    assert got == expected, f"prepared {where}"
    return expected


#: Per document: literal texts, parameterised texts (each run under all
#: ten bindings), two-variable texts and the streamed-finish text — 24 ×
#: (14 + 7 × 10 + 6 + 1) = 2,184 examples.
N_DOCUMENTS, N_LITERAL, N_LATE, N_JOIN = 24, 14, 7, 6

#: Two for-variables, a where whose ``<<`` rejects tuples in the finish,
#: a constructor return and no order by: the finish emits each tuple as
#: the where accepts it, which must be the oracle's order.
STREAMED = ("for $s in //shelf, $b in //book[title] where $s << $b "
            "and $b/price > 1 return <p>{$s/@genre}{$b/title}</p>")


@pytest.mark.parametrize("seed", range(N_DOCUMENTS))
def test_generated_where_differential(seed):
    rng = random.Random(f"where-pushdown:{seed}")
    with repro.connect(generate_document(rng)) as db:
        assert len(db.doc.nodes) > 256
        for _ in range(N_LITERAL):
            check_example(db, generate_query(rng, late=False), None)
        bindings = bindings_for(db.doc)
        for _ in range(N_LATE):
            text = generate_query(rng, late=True)
            for params in bindings:
                check_example(db, text, params)
        for _ in range(N_JOIN):
            text, swapped = generate_join(rng)
            check_example(db, text, None)
            if swapped is not None:
                assert outcome(lambda: db.query(swapped)) == \
                    outcome(lambda: db.query(text)), (text, swapped)
        expected = check_example(db, STREAMED)
        trace = db.query(STREAMED, trace=True).trace
        bind = trace.find("bind-phase").attrs
        finish = trace.find("finish-phase").attrs
        assert 0 < finish["surviving"] < bind["tuples"]
        assert finish["items"] == finish["constructed"] \
            == finish["surviving"] == expected.count("<p>")


# ----------------------------------------------------------------------
# Sibling chains: ``following-sibling`` order constraints (Definition 1)
# over present, absent (``zzz``) and misplaced (``$b/z``, ``$b/book``)
# labels, in every clause position, on flat and recursive documents.
# ----------------------------------------------------------------------

CHAIN_LABELS = ["title", "author", "price", "x", "y", "z", "book", "zzz"]
CHAIN_TEMPLATES = [
    "for $b in //book for $z in $b/{C} return $z",
    "for $b in //book let $z := $b/{C} return $z",
    "for $b in //book let $z := $b/{C} return <r>{{$z}}</r>",
    "for $b in //book where $b/{C} return $b/title",
    "for $b in //book where not($b/{C}) return <r>{{$b/price}}</r>",
    "for $b in //book[{C}] return $b/title",
    "//book[{C}]/title",
    "for $b in //book return <r>{{$b/{C}}}</r>",
]
#: Every strategy, of which a forced one may refuse with a typed error.
CHAIN = {"strategies": [*STRATEGIES, "twigstack", "xhive"],
         "refusals": ("<<CompileError>>", "<<ExecutionError>>")}


def chain_document(rng: random.Random, recursive: bool) -> str:
    """Books with shuffled children; ``recursive`` nests books (and an
    ``x`` in an ``x``)."""
    def book(depth: int) -> str:
        parts = [f"<{tag}>{rng.randint(1, 5)}</{tag}>" for tag in
                 ("title", "author", "price", "author", "price", "y")
                 if rng.random() < 0.6]
        inner = ["<y/>", "<z/>", "<price>2</price>",
                 "<x><y/></x>"][:3 + recursive]
        if rng.random() < 0.6:
            parts.append("<x>" + "".join(
                rng.sample(inner, rng.randint(1, len(inner)))) + "</x>")
        if recursive and depth < 2 and rng.random() < 0.5:
            parts.append(book(depth + 1))
        rng.shuffle(parts)
        return f"<book>{''.join(parts)}</book>"
    return f"<bib>{''.join(book(0) for _ in range(rng.randint(5, 7)))}</bib>"


@pytest.mark.parametrize("ret", ["$z", "<r>{$z}</r>"])
@pytest.mark.parametrize("chain", [
    "zzz/following-sibling::price", "y/following-sibling::price",
    "z/following-sibling::book/following-sibling::author",
    "x/zzz/following-sibling::y"])
def test_sibling_chain_with_an_empty_predecessor(chain, ret):
    """A rewriter that cut the absent (or misplaced) predecessor out of
    the optional branch freed its successor on every non-naive plan."""
    with repro.connect(
            "<bib><book><title>t</title><author>a</author><price>3</price>"
            "</book><book><title>u</title><author>b</author><price>5"
            "</price><x><y/><z/></x></book></bib>") as db:
        text = f"for $b in //book let $z := $b/{chain} return {ret}"
        assert check_example(db, text, **CHAIN) in ("", "<r/><r/>")


@pytest.mark.parametrize("recursive", [False, True],
                         ids=["flat", "recursive"])
@pytest.mark.parametrize("seed", range(8))
def test_generated_sibling_chain_differential(seed, recursive):
    rng = random.Random(f"sibling-chain:{seed}:{recursive}")
    with repro.connect(chain_document(rng, recursive)) as db:
        for _ in range(40):     # 1-3 steps; the first is a child step
            chain = "/".join(
                ("following-sibling::" if i and rng.random() < 0.5 else "")
                + rng.choice(CHAIN_LABELS) for i in range(rng.randint(1, 3)))
            check_example(db, rng.choice(CHAIN_TEMPLATES).format(C=chain),
                          **CHAIN)


# ----------------------------------------------------------------------
# Deterministic guards on the benchmark's own shapes.
# ----------------------------------------------------------------------

def library_xml(seed: int, shelves: int, books: int) -> str:
    """``bench/inputs.library_xml`` (the benchmark directory is not
    importable from the tests): prices and authors are seeded
    permutations of fixed multisets, so counts under a price bound do
    not move with the seed."""
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


F1 = "for $b in //book where $b/price < {} return $b/title"
SHAPES = {
    "F1p": (F1.format("$p"), {"p": 35}),
    "F1l": (F1.format(35), None),
    "F2l": ("for $s in //shelf, $b in $s/book where $s/@genre = 'g3' "
            "and $b/price < 30 return <hit>{$b/title}</hit>", None),
    "F3l": ("for $a in //book[price < 2], $b in //book[price < 2] "
            "where $a/author = $b/author and $a << $b "
            "return <pair>{$a/title}{$b/title}</pair>", None),
    "F4p": ("for $b in //book let $t := $b/title where $b/price < $p "
            "order by $b/author return <r>{$t}</r>", {"p": 35}),
    "F5l": ("for $b in //book where $b/@id = 'b777' return $b/title", None),
}
#: |F2l answer| per seed: only counts under a price bound are
#: seed-invariant, the genre of a cheap book is not.
F2L_ANSWER = {0: 94, 1: 96, 2: 98, 3: 89}


@pytest.fixture(scope="module")
def library():
    with repro.connect(library_xml(1, 40, 50)) as db:
        yield db


def phases(db, label):
    text, params = SHAPES[label]
    trace = db.prepare(text).execute(params=params, trace=True).trace
    return trace.find("bind-phase").attrs, trace.find("finish-phase").attrs


class TestEveryBoundTupleSurvives:
    """(a) — at the parent these shapes bound 2,000 / 734 / 629 / 2,000
    / 2,000 tuples to keep 734 / 734 / 96 / 734 / 1 (seed 1)."""

    @pytest.mark.parametrize("seed", sorted(F2L_ANSWER))
    def test_bind_equals_surviving(self, seed):
        with repro.connect(library_xml(seed, 40, 50)) as db:
            expected = {"F1p": 734, "F1l": 734, "F2l": F2L_ANSWER[seed],
                        "F4p": 734, "F5l": 1}
            for label, count in expected.items():
                bind, finish = phases(db, label)
                assert bind["tuples"] == finish["surviving"] == count, label
            bind, finish = phases(db, "F3l")
            # Was 41 x 41 = 1,681: the hash join on ``$a/author =
            # $b/author`` binds the 41 self pairs and both orders of
            # every same-author pair; ``<<`` is still found per tuple.
            cheap = Counter(
                book.children[0].string_value() for book in db.doc.nodes
                if book.tag == "book"
                and float(book.children[2].string_value()) < 2)
            assert sum(cheap.values()) == 41
            assert bind["tuples"] == sum(n * n for n in cheap.values())
            assert 41 < bind["tuples"] <= 100
            assert bind["value_joins"] == [
                {"build": 41, "probe": 41, "pairs": bind["tuples"]}]
            assert finish["where_conjuncts"] == 2


def compiled_where(text: str, doc, params: dict | None = None):
    """The per-tuple test the executor compiled for ``text``."""
    compiled = compile_query(text)
    artifacts = prepare_artifacts(compiled.tree)
    FLWORExecutor(doc).execute(compiled.flwor, artifacts, params)
    return artifacts.tree.compiled.where


class TestVerifyOnce:
    """(b) — the finish compiles only what the scan did not decide."""

    @pytest.mark.parametrize("label", ["F1p", "F1l", "F2l", "F4p", "F5l"])
    def test_whole_where_discharged(self, library, label):
        text, params = SHAPES[label]
        tree = compile_query(text).tree
        assert {c.disposition for c in tree.where} == {"pushed-exact"}
        assert compiled_where(text, library.doc, params) is None

    def test_crossing_conjuncts_stay(self, library):
        text, _ = SHAPES["F3l"]
        tree = compile_query(text).tree
        assert [c.disposition for c in tree.where] == ["crossing"] * 2
        assert compiled_where(text, library.doc) is not None

    def test_sibling_chain_conjunct_is_discharged(self, library):
        """The matcher decides sibling order by position, so a chain
        with a ``following-sibling`` step is as exact as any other (it
        was ``pushed``: pruned in the scan *and* verified per tuple)."""
        text = ("for $b in //book let $t := $b/title "
                "where $b/author/following-sibling::price < 5 "
                "return $b/title")
        (conjunct,) = compile_query(text).tree.where
        assert conjunct.disposition == "pushed-exact"
        assert compiled_where(text, library.doc) is None

    @pytest.mark.parametrize("text", [
        "for $a in //book, $b in //book[price < 2] where $a/price = "
        "$b/author/following-sibling::price return $a/title",
        "for $b in //book[price < 2] let $p := "
        "$b/author/following-sibling::price return <r>{$p}</r>",
    ])
    def test_optional_sibling_chain_is_a_plan(self, library, text):
        """Found by the grown differential: the predecessor of an
        *optional* ``following-sibling`` step is a non-returning leaf,
        but it constrains its successor — rule BT006 refused the tree,
        on every strategy, ``naive`` included."""
        expected = library.query(text, strategy="naive").serialize()
        assert expected
        for strategy in STRATEGIES:
            assert library.query(text, strategy=strategy).serialize() \
                == expected, strategy

    @pytest.mark.parametrize("where, disposition", [
        ("$t/text() = 1", "residual"),
        ("not($b/price < 5)", "residual"),
    ])
    def test_inexact_conjuncts_are_verified(self, library, where, disposition):
        text = (f"for $b in //book let $t := $b/title where {where} "
                "return $b/title")
        (conjunct,) = compile_query(text).tree.where
        assert conjunct.disposition == disposition
        assert compiled_where(text, library.doc) is not None

    def test_attribute_conjunct_is_a_vertex_test(self):
        # Never pushed before: the attribute axis raised inside the
        # chain builder and the rollback hid it.
        tree = compile_query(SHAPES["F5l"][0]).tree
        (conjunct,) = tree.where
        assert conjunct.target is tree.var_vertex["b"]
        assert [str(p) for p in conjunct.target.value_predicates] == [
            '/@id = "b777"']

    def test_duplicate_conjuncts_build_one_chain(self):
        tree = compile_query("for $b in //book where $b/price < 5 "
                             "and $b/price < 5 return $b").tree
        assert len(tree.where) == 1
        assert [v.name for v in tree.vertices] == ["#root", "book", "price"]

    def test_step_predicate_on_a_parameter_stays_navigational(self):
        compiled = compile_query("//book[price < $p]/title")
        assert compiled.tree is None
        assert "variable references inside step predicates" in \
            compiled.compile_error

    def test_describe_prints_one_line_per_conjunct(self):
        described = compile_query(
            "for $a in //book, $b in //book where $a/author = $b/author "
            "and $b/@id = 'b777' and $a/title/following-sibling::price < $p "
            "and ($a/price < 1 or $b/price < 1) return $a").tree.describe()
        assert described.splitlines()[-4:] == [
            "where $a/author = $b/author: crossing V3 = V4",
            'where $b/@id = "b777": pushed-exact → V2[/@id = "b777"]',
            "where $a/title/following-sibling::price < $p: "
            "pushed-exact → V6[. < $p]",
            "where $a/price < 1 or $b/price < 1: residual",
        ]


def entries_below(entries):
    for entry in entries:
        yield entry
        for group in entry.groups:
            yield from entries_below(e for e in group if e is not None)


class TestMatchOnce:
    """(c) — F3l's two ``book`` NoKs are one matcher call per book."""

    def test_twins_run_one_matcher(self, library):
        noks = prepare_artifacts(
            compile_query(SHAPES["F3l"][0]).tree).decomposition.noks
        twins = [n for n in noks if n.root.name == "book"]
        assert len(twins) == 2 and twins[0].shape() == twins[1].shape()
        # Found once per plan, by the decomposition: no scan compares.
        assert twins[1].twin_of == twins[0].nok_id and twins[0].twin_of is None
        calls = []
        for twin in twins:
            compiled = nok.matcher_for(twin)

            def counting(node, counters, variables, compiled=compiled):
                calls.append(node)
                return compiled(node, counters, variables)
            twin.matcher = counting
        per_nok: dict = {}
        results = merged_scan(noks, library.doc, ScanCounters(), per_nok, {})
        assert len(calls) == 2000           # was 4,000
        first, second = (results[t.nok_id] for t in twins)
        assert [e.node for e in first] == [e.node for e in second]
        assert len(first) == 41
        assert per_nok[twins[0].nok_id].comparisons == 6000
        assert twins[1].nok_id not in per_nok   # charged nothing: not scanned
        # Each list is labelled with its own NoK's vertices, all the
        # way down, and shares no entry with its twin's ...
        for twin, entries in zip(twins, (first, second)):
            assert all(e.vertex is twin.root for e in entries)
            assert {id(e.vertex) for e in entries_below(entries)} <= {
                id(v) for v in twin.vertices}
        assert not ({id(e) for e in entries_below(first)}
                    & {id(e) for e in entries_below(second)})
        # ... so reducing one (σ finds its vertex by identity) leaves
        # the other whole.
        author = twins[1].root.child_edges[1].child
        reduced = select(second, author, lambda node: False)
        assert not any(e.groups[1] for e in reduced)
        assert all(e.groups[1] for e in first)
        assert all(e.groups[1] for e in second)

    def test_twin_is_legible_from_outside(self, library):
        text, _ = SHAPES["F3l"]
        trace = library.query(text, trace=True).trace
        twin = trace.find_all("nok-scan")[2].attrs
        assert (twin["shared_with"], twin["comparisons"], twin["matches"]) \
            == (1, 0, 41)
        report = library.explain_analyze(text)
        assert "scan NoK#2 [book] (= NoK#1)" in report
        assert "where_conjuncts=2" in report

    def test_twins_on_every_engine_path(self):
        # No partition matches the twin (a worker is not even sent it);
        # the concatenated list is relabelled once: still the oracle's
        # answer, twin-of-a-slot included.
        with repro.connect(library_xml(2, 8, 25)) as db:
            check_example(db, SHAPES["F3l"][0].replace("< 2", "< 9"), None)
            check_example(
                db, "for $a in //book, $b in //book where $a/price < $p "
                "and $b/price < $p and $a/author = $b/author and $a << $b "
                "return <pair>{$a/title}{$b/title}</pair>", {"p": 9})

    def test_predicate_order_and_duplicates_do_not_distinguish(self):
        def book_shapes(text):
            noks = prepare_artifacts(compile_query(text).tree
                                     ).decomposition.noks
            return [n.shape() for n in noks if n.root.name == "book"]
        a, b = book_shapes("for $a in //book[@id = 'x'][. != 'y'], "
                           "$b in //book[. != 'y'][@id = 'x'][. != 'y'] "
                           "return $a")
        assert a == b
        a, b = book_shapes("for $a in //book[price < 2], "
                           "$b in //book[price < 3] return $a")
        assert a != b


SLOTTED = ("for $s in //shelf, $b in $s//book where $b/price < $p "
           "return $b/title")


class TestBindingsReachEveryScan:
    """(d) — the no-request superset exists for tools; no engine path
    uses it."""

    def test_no_request_is_the_structural_superset(self, library):
        text, _ = SHAPES["F1p"]
        noks = prepare_artifacts(compile_query(text).tree).decomposition.noks
        books = [n for n in library.doc.nodes if n.tag == "book"]
        book_nok = next(n for n in noks if n.root.name == "book")
        for args in ((), (ScanCounters(),)):
            results = merged_scan(noks, library.doc, *args)
            assert [e.node for e in results[book_nok.nok_id]] == books
            assert [e.node for e in results[0]] == [
                library.doc.document_node]
        bound = merged_scan(noks, library.doc, variables={"p": 35.0})
        assert len(bound[book_nok.nok_id]) == 734

    def test_no_engine_path_scans_without_bindings(self, library,
                                                   monkeypatch):
        plan = library.prepare(SLOTTED)
        expected = library.query(SLOTTED, params={"p": 35},
                                 strategy="naive").serialize()
        scans = []

        def guarded(compiled):
            def match(node, counters, variables):
                assert variables is not None, "scan without bindings"
                scans.append(node)
                return compiled(node, counters, variables)
            return match
        real = nok.compile_matcher
        monkeypatch.setattr(nok, "compile_matcher",
                            lambda vertex: guarded(real(vertex)))
        shipped = []
        real_scan = ProcessScanBackend.scan

        def scan(self, noks, doc, partitions, counters, want, variables):
            assert variables is not None, "partitions without bindings"
            shipped.append(variables)
            return real_scan(self, noks, doc, partitions, counters, want,
                             variables)
        monkeypatch.setattr(ProcessScanBackend, "scan", scan)
        for strategy in STRATEGIES:
            # A fresh text per strategy: its matchers compile guarded.
            text = f"{SLOTTED} (: {strategy} :)"
            got = library.query(text, params={"p": 35}, strategy=strategy)
            assert got.serialize() == expected, strategy
        for executor in PARALLEL_EXECUTORS:
            got = library.query(f"{SLOTTED} (: {executor} :)",
                                params={"p": 35}, strategy="parallel",
                                executor=executor)
            assert got.serialize() == expected, executor
        assert scans and shipped == [{"p": 35.0}]
        assert plan.execute(params={"p": 35}).serialize() == expected


class Unwritable(dict):
    """Request bindings that fail the test on any write."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a scan wrote into the request's bindings")

    __setitem__ = __delitem__ = setdefault = update = pop = popitem = \
        clear = _refuse


class TestOnePlanManyBindings:
    """(e) — bindings are call arguments, never state of the plan."""

    def test_threads_with_distinct_parameters(self):
        text, _ = SHAPES["F1p"]
        bounds = [0.5 + 2.4 * k for k in range(40)]
        with repro.connect(library_xml(1, 8, 25)) as db:
            expected = {p: db.query(text, params={"p": p},
                                    strategy="naive").serialize()
                        for p in bounds}
            assert len(set(expected.values())) > 30
            service = db.serve(workers=4)
            failures: list = []

            def worker(lane: int) -> None:
                rng = random.Random(lane)
                for _ in range(200):
                    p = rng.choice(bounds)
                    got = service.query(text, params={"p": p}).serialize()
                    if got != expected[p]:
                        failures.append((lane, p))
            threads = [threading.Thread(target=worker, args=(lane,))
                       for lane in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures

    def test_two_parameters_one_operator(self, library, monkeypatch):
        # One coerced test per (parameter, operator), kept by the scan:
        # two ``<`` conjuncts do not evict each other per candidate.
        text = ("for $b in //book where $b/price < $p and $b/title < $q "
                "return $b/title")
        params = {"p": 35, "q": "title-5"}
        expected = library.query(text, params=params,
                                 strategy="naive").serialize()
        assert expected
        plan = library.prepare(text)
        assert plan.execute(params=params).serialize() == expected
        coerced = []
        real = compile_module.literal_test
        monkeypatch.setattr(compile_module, "literal_test",
                            lambda op, literal: coerced.append(literal)
                            or real(op, literal))
        assert plan.execute(params=params).serialize() == expected
        assert sorted(coerced, key=str) == [35.0, "title-5"]

    def test_request_bindings_are_never_written(self, monkeypatch):
        # Every scan, in-process and on the worker processes, is handed
        # the request's bindings as they came in: what a scan coerces
        # stays with that scan (written into the bindings, it would be
        # pickled for the workers).  These bindings refuse every write.
        text = ("for $a in //book, $b in //book "
                "where $a/price < $p and $b/price < $p "
                "return <pair>{$a/price}{$b/title}</pair>")
        engine = Engine(parse(library_xml(0, 4, 25)))
        expected = engine.query(text, params={"p": 3},
                                strategy="naive").serialize()
        assert expected
        scanned = []

        def guarded(real):
            def scan(noks, doc, counters, per_nok, variables=None,
                     **options):
                scanned.append(real.__name__)
                return real(noks, doc, counters, per_nok,
                            variables=Unwritable(variables), **options)
            return scan
        for name in ("merged_scan", "parallel_merged_scan"):
            monkeypatch.setattr(executor_module, name,
                                guarded(getattr(executor_module, name)))
        runs = [engine.query(text, params={"p": 3}, trace=True),
                engine.query(text, params={"p": 3}, strategy="parallel",
                             executor="processes:2", trace=True)]
        assert [run.serialize() for run in runs] == [expected, expected]
        assert scanned == ["merged_scan", "parallel_merged_scan"]
        assert [len(run.trace.find_all("partition-scan"))
                for run in runs] == [0, 2]

    def test_serial_processes_serial(self, library):
        text, _ = SHAPES["F1p"]
        prices = [n for n in library.doc.nodes if n.tag == "price"]
        plan = library.prepare(text)
        for params in ({"p": 35}, {"p": "35"}, {"p": prices[:3]},
                       {"p": prices[0]}, {"p": []}, {"p": True}):
            expected = library.query(text, params=params,
                                     strategy="naive").serialize()
            for executor in ("serial", "processes:2", "serial"):
                got = plan.execute(params=params, executor=executor)
                assert got.serialize() == expected, (params, executor)
        # The plan that ran still pickles (no closure, no binding on it).
        noks = plan._plan.artifacts.decomposition.noks
        assert all(n.matcher is not None for n in noks)
        clone = pickle.loads(pickle.dumps(noks))
        assert all(n.matcher is None for n in clone)
