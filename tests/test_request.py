"""One request, one key, one options carrier
(:mod:`repro.engine.request`): per-request state never lives on the
shared engine, options are validated once with typed errors, the frame
codec round-trips, and every cache keys one request the same way."""

import contextlib

import pytest
from hypothesis import given, strategies as st

import repro
from repro.analysis.query import analyze_query
from repro.engine import optimizer as optimizer_mod
from repro.engine.backend import ExecutionBackend, resolve_backend
from repro.engine.plancache import normalize_query_text
from repro.engine.request import QueryKey, QueryOptions
from repro.engine.session import Engine
from repro.errors import ProtocolError, ReproError, UsageError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.serve import QueryService, client as client_mod
from repro.strategy import STRATEGIES
from repro.xmlkit.parser import parse

LIBRARY = """
<library>
  <book id="b1"><author>Gray</author><title>Transaction</title></book>
  <book id="b2"><author>Codd</author><title>Relational</title></book>
  <book id="b3"><title>Automata</title></book>
</library>
"""


class ReenteringTracer(Tracer):
    """Runs ``reenter()`` as the first ``execute`` span closes — a second
    request on the same engine between another's execution and its
    record stage, without threads or timing."""

    def __init__(self, reenter):
        super().__init__()
        self._reenter = reenter
        self.inner = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        with super().span(name, **attrs) as span:
            yield span
        if name == "execute" and self.inner is None:
            self.inner = self._reenter()


class TestPerRequestState:
    OUTER, INNER = "//book[author]/title", "//book/author"

    def test_reentrant_query_keeps_each_runs_own_state(self):
        """Regression: the engine used to keep the executed strategy
        and plan in instance fields, so the inner request below made
        the outer one record (and count, and report) itself as
        ``naive``."""
        queries = REGISTRY.get("repro_queries_total")
        before = {s: queries.value(strategy=s) for s in ("pipelined", "naive")}
        with repro.connect(LIBRARY) as db:
            log = db.configure_slow_log(0.0)
            tracer = ReenteringTracer(
                lambda: db.query(self.INNER, strategy="naive"))
            outer = db.query(self.OUTER, strategy="pipelined", tracer=tracer)
        inner = tracer.inner

        # The inner run finishes, and records, first.
        assert [(r.query, r.plan) for r in log.entries] == [
            (self.INNER, inner.plan), (self.OUTER, outer.plan)]
        assert "naive" not in log.entries[1].plan
        for strategy in ("pipelined", "naive"):
            assert queries.value(strategy=strategy) == before[strategy] + 1
        assert outer.strategy == "pipelined" and "pipelined" in outer.plan
        assert inner.strategy == "naive" and "naive" in inner.plan
        # A traced outer result carries its own trace, an untraced inner
        # one none.
        assert outer.trace.root.attrs["strategy"] == "pipelined"
        assert outer.trace.root.attrs["plan"] == outer.plan
        assert inner.trace is None

    def test_failed_runs_carry_their_plan_on_the_error(self):
        engine = Engine(parse(LIBRARY))
        with pytest.raises(repro.DNFError) as info:
            engine.query("//book/title", strategy="pipelined", work_budget=1)
        assert "pipelined" in info.value.plan
        assert info.value.trace is None
        # ...and, when the run was traced, its trace.
        with pytest.raises(repro.DNFError) as info:
            engine.query("//book/title", strategy="pipelined", work_budget=1,
                         trace=True)
        root = info.value.trace.root
        assert root.attrs["budget_tripped"] is True
        assert root.attrs["plan-cache"] == "hit"
        assert root.attrs.get("error") == "DNFError"
        with pytest.raises(repro.QueryTimeoutError) as info:
            engine.query("//book/title", timeout_ms=0, trace=True)
        assert info.value.trace.root.attrs["timed_out"] is True


# ----------------------------------------------------------------------
# Options are validated once, with typed errors, on every surface.
# ----------------------------------------------------------------------

BAD_OPTIONS = [
    {"executor": "gpu"}, {"executor": "threads:x"},
    {"executor": "threads:0"}, {"executor": 7},
    {"timeout_ms": "soon"}, {"timeout_ms": float("nan")},
    {"timeout_ms": float("inf")}, {"timeout_ms": -1}, {"timeout_ms": True},
    {"params": [("who", "Gray")]}, {"strategy": ["naive"]},
    {"strategy": "cost"},   # a deleted chooser is an unknown name
]


@pytest.fixture(scope="module")
def surfaces():
    """The five query surfaces as ``call(text=..., **options)`` closures
    (``//book/title`` unless a text is given)."""
    title = "//book/title"
    with repro.connect(LIBRARY) as db:
        server = db.listen()
        with client_mod.connect(*server.address) as client:
            yield {
                "Engine.query":
                    lambda text=title, **o: db.engine.query(text, **o),
                "Database.query": lambda text=title, **o: db.query(text, **o),
                "PreparedQuery.execute":
                    lambda text=title, **o: db.prepare(text).execute(**o),
                "QueryService.submit": lambda text=title, **o:
                    db.serve().submit(text, **o).result(),
                "Client.query":
                    lambda text=title, **o: client.query(text, **o),
            }


SURFACES = ["Engine.query", "Database.query", "PreparedQuery.execute",
            "QueryService.submit", "Client.query"]


@pytest.mark.parametrize("surface", SURFACES)
def test_every_doc_uri_reads_the_requests_document(surfaces, surface):
    # A query names no document: ``doc(uri)`` reads the one the request
    # reads, whatever the uri, on every surface alike.
    plain = surfaces[surface]().serialize()
    assert plain.count("<title>") == 3
    assert surfaces[surface](
        text='doc("elsewhere.xml")//book/title').serialize() == plain


class TestOptionValidation:
    @pytest.mark.parametrize("bad", BAD_OPTIONS, ids=repr)
    @pytest.mark.parametrize("surface", SURFACES)
    def test_bad_option_is_a_usage_error_everywhere(self, surfaces, surface,
                                                    bad):
        if surface == "PreparedQuery.execute" and "strategy" in bad:
            pytest.skip("strategy is pinned at prepare() time")
        with pytest.raises(UsageError):
            surfaces[surface](**bad)
        # ...and the surface (the client's connection included) survives.
        assert len(surfaces[surface]()) == 3

    @pytest.mark.parametrize("executor", ["gpu", "threads:x", "threads:0",
                                          "serial:4", 7])
    def test_backend_argument_errors_are_usage_errors(self, executor):
        with pytest.raises(UsageError) as info:
            resolve_backend(executor)
        assert isinstance(info.value, ReproError)

    def test_work_budget_is_checked_too(self):
        for bad in (-1, 1.5, True, "lots"):
            with pytest.raises(UsageError, match="work_budget"):
                QueryOptions(work_budget=bad)

    @pytest.mark.parametrize("strategy", ["bogus", "static-empty"])
    def test_unknown_strategy_is_refused_before_admission(self, strategy):
        # The constructor checks the name (an ``internal`` row is not
        # requestable), so a service never queues, counts or runs it.
        with pytest.raises(UsageError, match="unknown strategy"):
            QueryOptions(strategy)
        with QueryService(LIBRARY, workers=1) as service:
            with pytest.raises(UsageError, match="unknown strategy"):
                service.submit("//book", strategy=strategy)
            stats = service.stats()
            assert stats["counters"]["submitted"] == 0
            assert stats["result_cache"]["misses"] == 0

    def test_unknown_document_is_refused_before_admission(self):
        """Regression: ``doc="nope"`` used to be queued, hold a worker
        and fail only in its future (``submitted`` 1, ``failed`` 1)."""
        with QueryService(LIBRARY, workers=1) as service:
            with pytest.raises(UsageError, match="unknown document 'nope'"):
                service.submit("//book", doc="nope")
            with pytest.raises(UsageError, match="unknown document"):
                service.query_batch(["//book", {"text": "//b", "doc": "x"}])
            with repro.listen(service) as server, \
                    client_mod.connect(*server.address) as client:
                with pytest.raises(UsageError, match="unknown document"):
                    client.query("//book", doc="nope")
                counters = service.stats()["counters"]
                assert counters["submitted"] == counters["failed"] == 0
                assert len(client.query("//book")) == 3

    @pytest.mark.parametrize("item", [
        {"txt": "//book"}, 42, {"text": 42},
        {"text": "//book", "work_budget": 3}, {"text": "//book", "bogus": 1}],
        ids=repr)
    def test_query_batch_items_are_checked_all_or_nothing(self, item):
        with QueryService(LIBRARY, workers=1) as service:
            with pytest.raises(UsageError, match="query_batch item"):
                service.query_batch(["//book", item])
            assert service.stats()["counters"]["submitted"] == 0
            assert len(service.query_batch(
                ["//book", {"text": "//book/title", "timeout_ms": 1000,
                            "executor": "serial"}])[1]) == 3

    def test_every_requestable_row_is_accepted(self):
        requestable = [row.name for row in STRATEGIES.values()
                       if row.family != "internal"]
        assert [QueryOptions(name).strategy for name in requestable] \
            == requestable
        assert len(requestable) == 9 and "cost" not in requestable


OPTIONS = st.builds(
    QueryOptions,
    strategy=st.sampled_from(["auto", "naive", "pipelined", "parallel"]),
    params=st.none() | st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.text(max_size=4) | st.floats(allow_nan=False) | st.booleans(),
        max_size=3),
    timeout_ms=st.none() | st.floats(min_value=0, max_value=1e9)
    | st.integers(min_value=0, max_value=10**6),
    executor=st.none() | st.sampled_from(
        ["serial", "threads", "threads:2", "processes:3",
         ExecutionBackend("threads", 8)]))


class TestFrameCodec:
    @given(options=OPTIONS, doc=st.none() | st.text(min_size=1, max_size=8))
    def test_round_trip(self, options, doc):
        import json

        frame = json.loads(json.dumps(options.to_frame(doc)))
        decoded, decoded_doc = QueryOptions.from_frame(frame)
        assert decoded_doc == doc
        for name in ("strategy", "params", "timeout_ms", "executor"):
            assert getattr(decoded, name) == getattr(options, name)

    def test_absent_fields_fall_back_to_the_pinned_handle(self):
        pinned = QueryOptions("parallel", executor="processes:2")
        options, doc = QueryOptions.from_frame(
            {"params": {"p": 1}}, pinned, "main", 250.0)
        assert (options.strategy, options.executor.key, doc,
                options.timeout_ms) == ("parallel", "processes:2", "main",
                                        250.0)
        override, _ = QueryOptions.from_frame({"executor": "serial"}, pinned)
        assert override.executor.key == "serial"

    @pytest.mark.parametrize("field, value", [
        ("timeout_ms", "soon"), ("strategy", ["x"]), ("executor", 7),
        ("doc", 5), ("params", [1])])
    def test_wrongly_typed_field_is_a_protocol_error(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            QueryOptions.from_frame({field: value})


# ----------------------------------------------------------------------
# One identity: every cache and memo keys a request the same way.
# ----------------------------------------------------------------------

class TestOneIdentity:
    VARIANTS = ("//book[author]/title", "  //book[author]/title ",
                "//book[author]/title\n")

    def test_key_views_have_the_documented_contents(self):
        options = QueryOptions("auto", executor="threads:2")
        key = QueryKey(" //a  /b ", options)
        assert key.plan(("fp",)) == ("//a /b", "auto", ("fp",))
        assert (key.text, key.strategy) == ("//a /b", "auto")
        assert QueryKey.__slots__ == ("text", "strategy")
        assert key.coalescing("main") == ("main", "//a /b", "auto")
        assert key.result("main", 3) == ("main", 3, "//a /b", "auto")
        assert QueryKey(object(), options).text is None     # bypasses caches

    def test_whitespace_variants_and_executors_share_one_key(self,
                                                             monkeypatch):
        lints = []
        monkeypatch.setattr(
            optimizer_mod, "analyze_query",
            lambda *a, **kw: lints.append(a) or analyze_query(*a, **kw))
        with repro.connect(LIBRARY) as db:
            service = db.serve(workers=1)
            for text in self.VARIANTS:
                service.query(text)
            engine = service.catalog.engine_for(
                service.catalog.current("main"))
            assert len(engine.plan_cache) == 1
            assert len(lints) == 1      # three variants, one compile
            assert len(service.result_cache) == 1
            assert service.stats()["result_cache"]["hits"] == 2

            # The executor is not part of the identity: no new plan,
            # no new result, no second lint.
            assert service.query(self.VARIANTS[0],
                                 executor="threads:2").cached
            for executor in ("serial", "threads:2", "processes:2"):
                engine.query(self.VARIANTS[1], executor=executor)
            assert len(engine.plan_cache) == 1
            assert len(service.result_cache) == 1
            assert len(lints) == 1

    def test_coalescing_slot_follows_the_same_identity(self):
        from repro.serve.service import QueryService

        service = QueryService(LIBRARY, workers=1)
        try:
            slots = {service._request(text, None, QueryOptions()).slot
                     for text in self.VARIANTS}
            assert len(slots) == 1
            assert service._request(
                self.VARIANTS[0], None,
                QueryOptions(executor="threads:2")).slot in slots
            other = service._request(
                self.VARIANTS[0], None, QueryOptions("pipelined"))
            assert other.slot not in slots
            assert service._request(
                self.VARIANTS[0], None, QueryOptions(trace=True)).slot is None
        finally:
            service.close()


# ----------------------------------------------------------------------
# The identity may merge reformatted texts, never distinct queries.  It
# used to collapse every blank run — inside string literals and
# constructor content too — so the second query of each pair below was
# answered with the first one's plan (and, from the service, the first
# one's cached result).
# ----------------------------------------------------------------------

SPACED = "<r><b><t>a  b</t></b><b><t>a b</t></b></r>"

ALIASING_PAIRS = {
    "literal": ('//b[t = "a  b"]', '//b[t = "a b"]'),
    "constructor": ("for $b in //b[t = 'a b'] return <k>x  y</k>",
                    "for $b in //b[t = 'a b'] return <k>x y</k>"),
}


def _oracle(text):
    return Engine(parse(SPACED)).query(text, strategy="naive").serialize()


@pytest.mark.parametrize("pair", ALIASING_PAIRS.values(),
                         ids=ALIASING_PAIRS.keys())
@pytest.mark.parametrize("surface", ["Engine.query", "Database.prepare",
                                     "QueryService.query", "Client.query"])
def test_distinct_queries_never_share_an_identity(surface, pair):
    assert _oracle(pair[0]) != _oracle(pair[1])
    with repro.connect(SPACED) as db:
        service = db.serve(workers=1)

        def via_service(text):
            reply = service.query(text)
            assert not reply.cached     # asked once each: nothing to replay
            return reply.result

        with client_mod.connect(*db.listen().address) as client:
            ask = {
                "Engine.query": db.engine.query,
                "Database.prepare": lambda text: db.prepare(text).execute(),
                "QueryService.query": via_service,
                "Client.query": client.query,
            }[surface]
            for text in pair:
                assert ask(text).serialize() == _oracle(text)


def test_the_merge_rule_is_decided_without_parsing():
    same = normalize_query_text
    assert same(" //a  /b\n[c] ") == same("//a /b [c]") == "//a /b [c]"
    # A quote or a ``<name`` may open text whose blanks are data: such
    # texts are stripped at the ends and otherwise left alone.
    for text in ('//b[t = "a  b"]', "//b[t = 'a  b']",
                 "for $b in //b  return <k>x  y</k>"):
        assert same(f"  {text}\n") == text
    assert same("$a/price <  30") == "$a/price < 30"    # a comparison merges
    # What ``str.split`` calls blank but the lexer rejects stays visible.
    assert same("//a\x0c/b") != same("//a /b")
