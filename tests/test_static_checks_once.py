"""Every static check runs exactly once per compile, through its one
implementation: the scoping walk ahead of pattern build (one traversal
yields the external parameters *and* the static report), the tree
verifier right after it, the query lint, and the decomposition / plan
passes over the chosen plan.  Nothing is memoized behind the plan
cache, so a plan-cache hit and a prepared ``execute`` run none of
them."""

import pytest

import repro
from repro.analysis import analyzer as analyzer_mod
from repro.engine import compiler as compiler_mod
from repro.engine import executor as executor_mod
from repro.engine import optimizer as optimizer_mod
from repro.engine.session import Engine
from repro.errors import StaticError
from repro.pattern.artifact import prepare_artifacts
from repro.serve import client as client_mod
from repro.xmlkit.parser import parse
from repro.xquery import semantics as semantics_mod
from tests.conftest import SMALL_BIB

FLWOR = "for $b in //book where $b/price > 30 return $b/title"
BARE = "//book/title"
STATIC_EMPTY = "for $b in //book where 1 = 2 return $b/title"

CHECKS = ("scope", "blossom_pass", "decomposition_pass", "plan_pass",
          "analyze_query")


@pytest.fixture
def calls(monkeypatch):
    """``{check name: [first positional argument of each call]}`` over
    every name the compile path resolves the five checks through."""
    seen = {name: [] for name in CHECKS}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    # The one traversal behind ``analyze`` and ``free_variables`` (which
    # resolve it through the module) and behind ``compile_query``.
    scope = counted("scope", semantics_mod.scope)
    monkeypatch.setattr(semantics_mod, "scope", scope)
    monkeypatch.setattr(compiler_mod, "scope", scope)
    for name in CHECKS[1:4]:
        monkeypatch.setattr(analyzer_mod, name,
                            counted(name, getattr(analyzer_mod, name)))
    monkeypatch.setattr(optimizer_mod, "analyze_query",
                        counted("analyze_query", optimizer_mod.analyze_query))
    # The suite-wide fixture verifies every artifact bundle once more
    # on purpose; this test counts what the engine itself runs.
    monkeypatch.setattr(optimizer_mod, "prepare_artifacts", prepare_artifacts)
    monkeypatch.setattr(executor_mod, "prepare_artifacts", prepare_artifacts)
    return seen


def counts(calls):
    return {name: len(args) for name, args in calls.items()}


def reset(calls):
    for args in calls.values():
        args.clear()


ONCE = dict.fromkeys(CHECKS, 1)
NONE = dict.fromkeys(CHECKS, 0)


class TestOncePerCompile:
    def test_cold_flwor_runs_every_check_once(self, calls):
        Engine(parse(SMALL_BIB)).query(FLWOR)
        assert counts(calls) == ONCE

    def test_cold_bare_path_has_no_user_scoping_to_analyze(self, calls):
        """One walk all the same (it finds the ``$parameters``), but no
        static report: the wrapper FLWOR is the compiler's own."""
        Engine(parse(SMALL_BIB)).query(BARE)
        assert counts(calls) == ONCE
        assert compiler_mod.compile_query(BARE).static is None
        assert compiler_mod.compile_query(FLWOR).static is not None

    def test_static_empty_plan_has_no_artifacts_to_verify(self, calls):
        result = Engine(parse(SMALL_BIB)).query(STATIC_EMPTY)
        assert "static-empty" in result.plan
        assert counts(calls) == {**NONE, "scope": 1, "blossom_pass": 1,
                                 "analyze_query": 1}

    def test_a_new_cache_key_is_a_new_compile(self, calls):
        engine = Engine(parse(SMALL_BIB))
        engine.query(FLWOR)
        engine.query(FLWOR, strategy="stack")
        assert counts(calls) == dict.fromkeys(CHECKS, 2)


class TestNothingBehindThePlanCache:
    def test_repeat_is_a_plan_cache_hit_and_checks_nothing(self, calls):
        engine = Engine(parse(SMALL_BIB))
        for text in (FLWOR, BARE, STATIC_EMPTY):
            engine.query(text)
        reset(calls)
        for text in (FLWOR, BARE, STATIC_EMPTY, "  " + FLWOR + "\n"):
            result = engine.query(text, trace=True)
            assert result.trace.root.attrs["plan-cache"] == "hit"
        assert counts(calls) == NONE

    def test_prepared_execute_checks_nothing(self, calls):
        engine = Engine(parse(SMALL_BIB))
        prepared = engine.prepare(FLWOR)
        assert counts(calls) == ONCE
        reset(calls)
        for _ in range(3):
            assert len(prepared.execute()) == 2
        assert counts(calls) == NONE


# ----------------------------------------------------------------------
# With the analysis ahead of pattern build, a duplicate binding is a
# typed StaticError on every surface (it used to escape as the pattern
# builder's bare ValueError: INTERNAL on the wire).
# ----------------------------------------------------------------------

DUPLICATES = ["for $a in //book, $a in //title return $a",
              "for $a in //book let $a := $a/title return $a"]


@pytest.fixture(scope="module")
def surfaces():
    with repro.connect(SMALL_BIB) as db:
        server = db.listen()
        with client_mod.connect(*server.address) as client:
            yield {
                "Engine.query": db.engine.query,
                "Engine.prepare": db.engine.prepare,
                "Database.query": db.query,
                "QueryService.query": db.serve().query,
                "Client.query": client.query,
            }


@pytest.mark.parametrize("text", DUPLICATES)
@pytest.mark.parametrize("surface", ["Engine.query", "Engine.prepare",
                                     "Database.query", "QueryService.query",
                                     "Client.query"])
def test_duplicate_binding_is_a_static_error(surfaces, surface, text):
    call = surfaces[surface]
    for options in ({}, {"strategy": "naive"}):
        with pytest.raises(StaticError, match=r"\$a bound twice") as info:
            call(text, **options)
        assert text in str(info.value)      # carries the query text
    # ...and the surface (the client's connection included) survives.
    assert len(surfaces["Client.query"]("//book/title")) == 3
