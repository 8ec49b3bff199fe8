"""The network serving front end: wire protocol, error mapping,
adaptive admission, robustness, and the differential bit-identity
suite (network client vs in-process service on the same snapshot)."""

import json
import socket
import struct
import threading
import time

import pytest

import repro
from repro.errors import (
    WIRE_CODES,
    BindingError,
    ProtocolError,
    QuerySyntaxError,
    QueryTimeoutError,
    ReproError,
    ServiceOverloadedError,
    UsageError,
    error_for_code,
    wire_code,
)
from repro.serve import client as client_mod
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    chunk_prefix,
    decode_frame,
    decode_item,
    encode_chunk,
    encode_fragment,
    encode_frame,
    encode_item,
    read_frame,
)
from repro.serve.server import Server, listen
from repro.serve.service import QueryService
from repro.serve.throttle import AdmissionController

LIBRARY = """
<library>
  <shelf genre="systems">
    <book id="b1"><author>Gray</author><title>Transaction</title>
      <price>45</price></book>
    <book id="b2"><author>Codd</author><title>Relational</title>
      <price>30</price></book>
  </shelf>
  <shelf genre="theory">
    <book id="b3"><title>Automata</title><price>55</price></book>
  </shelf>
</library>
"""

#: The same shape, with text that needs JSON escaping on the wire:
#: quotes, a backslash, markup characters, a non-ASCII letter, a tab.
ESCAPES = """
<library>
  <shelf genre='say "hi" \\ bye'>
    <book id="b1"><author>O"Brien &amp; Sons</author>
      <title>Tabs\tand &lt;angles&gt; \\n</title><price>45</price></book>
    <book id="b2"><author>Émile</author><title>Café "noir"</title>
      <price>30</price></book>
  </shelf>
  <shelf genre="théorie">
    <book id="b3"><title>Automata\t&amp;</title><price>55</price></book>
  </shelf>
</library>
"""

#: Request ids a client may choose; each must come back exactly.
REQUEST_IDS = [7, 'an "id" with \\ quotes', None]


@pytest.fixture
def served():
    """A service + server + connected client over an ephemeral port."""
    with repro.connect(LIBRARY) as db:
        server = db.listen()
        with client_mod.connect(*server.address) as cl:
            yield db, server, cl


def _raw_connection(server):
    """A raw socket to the server, hello frame already consumed."""
    sock = socket.create_connection(server.address, timeout=5.0)
    stream = sock.makefile("rwb")
    hello = read_frame(stream)
    assert hello["type"] == "hello"
    return sock, stream


# ----------------------------------------------------------------------
# Protocol unit tests.
# ----------------------------------------------------------------------


class TestFrames:
    def test_roundtrip(self):
        data = encode_frame({"type": "ping", "id": 7})
        length = struct.unpack(">I", data[:4])[0]
        assert len(data) == 4 + length
        frame = decode_frame(data[4:])
        assert frame == {"v": PROTOCOL_VERSION, "type": "ping", "id": 7}

    def test_wrong_version_is_refused(self):
        data = encode_frame({"v": 99, "type": "ping"})
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(data[4:])

    def test_non_object_is_refused(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1,2,3]")

    def test_garbage_is_refused(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_frame(b"\xff\x00 not json")

    def test_missing_type_is_refused(self):
        with pytest.raises(ProtocolError, match="type"):
            decode_frame(b'{"v": 1}')

    def test_atom_items_widen_ints_to_float(self):
        assert decode_item({"kind": "atom", "value": 3}) == ("atom", 3.0)
        assert decode_item({"kind": "atom", "value": True}) == ("atom", True)

    def test_unknown_item_kind_is_refused(self):
        with pytest.raises(ProtocolError, match="kind"):
            decode_item({"kind": "blob", "value": "x"})

    def test_fragments_are_the_compact_json_of_encode_item(self):
        with repro.connect(ESCAPES) as db:
            nodes = db.query("//book", strategy="naive").items
            attrs = db.query("//shelf/@genre", strategy="naive").items
        items = [*nodes, *attrs, 3, -0.5, float("inf"), True, False,
                 'quote " backslash \\ tab \t é']
        for item in items:
            fragment = encode_fragment(item)
            assert json.loads(fragment) == encode_item(item)
            assert fragment == json.dumps(
                encode_item(item), separators=(",", ":"),
                ensure_ascii=False).encode("utf-8")
        for request_id in REQUEST_IDS:
            chunk = encode_chunk(chunk_prefix(request_id),
                                 [encode_fragment(i) for i in items])
            assert chunk == encode_frame({
                "type": "result_chunk", "id": request_id,
                "items": [encode_item(i) for i in items]})
            assert decode_frame(chunk[4:])["id"] == request_id


class TestWireCodes:
    def test_every_code_roundtrips_to_its_class(self):
        for code, cls in WIRE_CODES:
            error = error_for_code(code, "boom")
            assert isinstance(error, cls), code
            assert wire_code(error) == code

    def test_subclasses_map_before_bases(self):
        # QueryTimeoutError subclasses ExecutionError; the wire code
        # must preserve the most specific class.
        assert wire_code(QueryTimeoutError("t", timeout_ms=1)) == "TIMEOUT"

    def test_unknown_code_degrades_to_the_root(self):
        error = error_for_code("FROM_THE_FUTURE", "??")
        assert type(error) is ReproError

    def test_non_repro_errors_map_to_internal(self):
        assert wire_code(ValueError("x")) == "INTERNAL"


# ----------------------------------------------------------------------
# End-to-end over a real socket.
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_query_roundtrip(self, served):
        db, _server, cl = served
        result = cl.query("//book[author]/title")
        assert result.serialize() == \
            db.query("//book[author]/title").serialize()
        assert result.snapshot_id >= 0
        assert len(result) == 2

    def test_params_flow_through(self, served):
        _db, _server, cl = served
        result = cl.query("//book[author = $who]/title",
                          params={"who": "Gray"})
        assert result.string_values() == ["Transaction"]

    def test_errors_arrive_as_their_class(self, served):
        _db, _server, cl = served
        with pytest.raises(QuerySyntaxError):
            cl.query("//book[")
        # The connection survives an error frame.
        assert cl.ping()

    def test_binding_errors_cross_the_wire(self, served):
        _db, _server, cl = served
        with pytest.raises(BindingError, match="missing binding"):
            cl.query("//book[author = $who]/title")

    def test_stats_schema_and_server_section(self, served):
        _db, _server, cl = served
        cl.query("//book")
        stats = cl.stats()
        assert stats["schema"] == 4         # STATS_SCHEMA
        section = stats["server"]
        assert section["active_connections"] >= 1
        assert section["admission"]["window"] >= 1
        assert section["admission"]["admitted"] >= 1

    def test_prepare_execute(self, served):
        db, _server, cl = served
        plan = cl.prepare("for $b in //book where $b/price < $max "
                          "return $b/title")
        assert plan.parameters == {"max"}
        remote = plan.execute(params={"max": 40.0}).serialize()
        local = db.prepare("for $b in //book where $b/price < $max "
                           "return $b/title")
        assert remote == local.execute(params={"max": 40.0}).serialize()

    def test_unknown_prepared_handle(self, served):
        _db, _server, cl = served
        with pytest.raises(UsageError, match="prepared"):
            client_mod.RemotePrepared(cl, 999, "//x", []).execute()

    def test_pipelined_requests_demultiplex_by_id(self, served):
        _db, _server, cl = served
        # Interleave requests on one connection; responses carry ids.
        for _ in range(5):
            assert len(cl.query("//book")) == 3
            assert cl.ping()

    def test_module_level_listen_owns_its_service(self):
        server = listen(LIBRARY, port=0)
        try:
            with client_mod.connect(*server.address) as cl:
                assert len(cl.query("//book")) == 3
        finally:
            server.close()
        assert server.service.closed

    def test_database_listen_is_idempotent_while_running(self):
        with repro.connect(LIBRARY) as db:
            server = db.listen()
            assert db.listen() is server
            db.close()
            assert server.closed

    def test_front_door_exports(self):
        assert repro.listen is listen
        assert repro.Server is Server
        assert repro.Client is client_mod.Client


class TestDifferentialBitIdentity:
    """Network results must be byte-for-byte the in-process results."""

    QUERIES = [
        "//book",
        "//book[author]/title",
        "//shelf/@genre",
        "/library/shelf/book/price",
        "count(//book)",
        "for $b in //book where $b/price > 40 return $b/title",
        "//book[price > $p]/title",
    ]

    @staticmethod
    def _assert_miss_then_hit(db, cl, query):
        """Query twice over the wire: the first reply executes, the
        second (unless parameterized) is a result-cache hit, and both
        serialize exactly as the in-process service does."""
        params = {"p": 30.0} if "$p" in query else None
        first = cl.query(query, params=params)
        second = cl.query(query, params=params)
        local = db.serve().query(query, params=params)
        assert not first.cached
        assert second.cached is (params is None)
        assert first.serialize() == local.serialize(), query
        assert second.serialize() == local.serialize(), query
        assert first.snapshot_id == local.snapshot_id

    @pytest.mark.parametrize("query", QUERIES)
    def test_wire_equals_in_process(self, served, query):
        db, _server, cl = served
        self._assert_miss_then_hit(db, cl, query)

    @pytest.mark.parametrize("chunk_items", [1, 3, 256])
    @pytest.mark.parametrize("xml", [LIBRARY, ESCAPES],
                             ids=["library", "escapes"])
    def test_wire_equals_in_process_per_chunk_size(self, xml, chunk_items):
        with repro.connect(xml) as db:
            server = db.listen(chunk_items=chunk_items)
            with client_mod.connect(*server.address) as cl:
                for query in self.QUERIES:
                    self._assert_miss_then_hit(db, cl, query)

    @pytest.mark.parametrize("request_id", REQUEST_IDS,
                             ids=["int", "quoted", "none"])
    def test_request_ids_echo_back_exactly(self, served, request_id):
        db, server, _cl = served
        sock, stream = _raw_connection(server)
        try:
            for cached in (False, True):
                stream.write(encode_frame({"type": "query", "id": request_id,
                                           "text": "//book"}))
                stream.flush()
                frames = [read_frame(stream)]
                while frames[-1]["type"] != "result_footer":
                    frames.append(read_frame(stream))
                assert frames[0]["cached"] is cached
                for frame in frames:
                    assert frame["id"] == request_id
                    assert type(frame["id"]) is type(request_id)
                items = [decode_item(item) for frame in frames[1:-1]
                         for item in frame["items"]]
                assert "".join(xml for _kind, xml in items) == \
                    db.query("//book").serialize()
        finally:
            sock.close()


# ----------------------------------------------------------------------
# Robustness: hostile bytes, vanishing peers, expiring deadlines.
# ----------------------------------------------------------------------


_NAN = float("nan")


@pytest.mark.parametrize("surface, name, value", [
    ("service", "workers", 2.5),
    ("service", "workers", True),
    ("service", "max_queue", _NAN),
    ("service", "max_queue", 0),
    ("service", "default_timeout_ms", -5),
    ("service", "default_timeout_ms", _NAN),
    ("service", "default_timeout_ms", "10"),
    ("server", "default_timeout_ms", -1),
    ("server", "max_frame_bytes", 0),
    ("server", "max_frame_bytes", -1),
    ("server", "chunk_items", 2.5),
    ("server", "drain_timeout_s", _NAN),
    ("server", "drain_timeout_s", -1.0),
])
def test_constructors_refuse_settings_every_request_would_fail(
        surface, name, value):
    """Each of these used to be accepted and then disable admission,
    fail every query or make ``close()`` raise; the constructor names
    the setting instead."""
    if surface == "service":
        with pytest.raises(UsageError, match=name):
            QueryService(LIBRARY, **{name: value}).close()
        return
    with QueryService(LIBRARY, workers=1) as service:
        with pytest.raises(UsageError, match=name):
            Server(service, **{name: value}).close()
    assert service.stats().get("server") is None
    # ``listen`` closes the service it built for the refused server.
    threads = threading.active_count()
    with pytest.raises(UsageError, match=name):
        listen(LIBRARY, workers=1, **{name: value}).close()
    assert threading.active_count() == threads


class TestRobustness:
    def test_malformed_frame_gets_error_then_close(self, served):
        _db, server, _cl = served
        sock, stream = _raw_connection(server)
        try:
            body = b"this is not json"
            stream.write(struct.pack(">I", len(body)) + body)
            stream.flush()
            reply = read_frame(stream)
            assert reply["type"] == "error"
            assert reply["code"] == "PROTOCOL"
            with pytest.raises(EOFError):
                read_frame(stream)       # server closed the connection
        finally:
            sock.close()

    def test_oversized_frame_is_refused_unread(self, served):
        _db, server, _cl = served
        sock, stream = _raw_connection(server)
        try:
            stream.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
            stream.flush()
            reply = read_frame(stream)
            assert reply["type"] == "error"
            assert reply["code"] == "PROTOCOL"
            assert "exceeds" in reply["message"]
        finally:
            sock.close()

    def test_unknown_frame_type_keeps_the_connection(self, served):
        _db, server, _cl = served
        sock, stream = _raw_connection(server)
        try:
            stream.write(encode_frame({"type": "teleport", "id": 1}))
            stream.write(encode_frame({"type": "ping", "id": 2}))
            stream.flush()
            first = read_frame(stream)
            assert (first["type"], first["code"]) == ("error", "PROTOCOL")
            second = read_frame(stream)
            assert (second["type"], second["id"]) == ("pong", 2)
        finally:
            sock.close()

    @pytest.mark.parametrize("frame_type", ["query", "prepare", "execute"])
    @pytest.mark.parametrize("field, value, code", [
        ("timeout_ms", "soon", "PROTOCOL"),
        ("timeout_ms", float("nan"), "USAGE"),
        ("timeout_ms", float("inf"), "USAGE"),
        ("timeout_ms", True, "USAGE"),
        ("strategy", ["x"], "PROTOCOL"),
        ("strategy", "bogus", "USAGE"),
        ("strategy", "static-empty", "USAGE"),
        ("executor", 7, "PROTOCOL"),
        ("executor", "gpu", "USAGE"),
        ("executor", "threads:0", "USAGE"),
        ("executor", "serial:4", "USAGE"),
        ("params", [1], "PROTOCOL"),
    ], ids=lambda v: repr(v) if not isinstance(v, str) else v)
    def test_malformed_option_field_keeps_the_connection(
            self, served, frame_type, field, value, code):
        """Options are validated once, in the frame codec: a wrong JSON
        type is PROTOCOL, a well-typed invalid value USAGE — never
        INTERNAL, never a raw Python operator message."""
        _db, server, _cl = served
        sock, stream = _raw_connection(server)
        try:
            frame = {"type": frame_type, "id": 2, "text": "//book",
                     field: value}
            if frame_type == "execute":
                stream.write(encode_frame(
                    {"type": "prepare", "id": 1, "text": "//book"}))
                stream.flush()
                frame["prepared"] = read_frame(stream)["prepared"]
            stream.write(encode_frame(frame))
            stream.write(encode_frame({"type": "ping", "id": 3}))
            stream.flush()
            # Pipelined requests answer in completion order.
            reply, pong = sorted((read_frame(stream), read_frame(stream)),
                                 key=lambda f: f["id"])
            assert (reply["type"], reply["id"]) == ("error", 2)
            assert reply["code"] == code, reply
            assert "unsupported operand" not in reply["message"]
            assert "unhashable" not in reply["message"]
            assert (pong["type"], pong["id"]) == ("pong", 3)
        finally:
            sock.close()

    @pytest.mark.parametrize("text", [
        "//book[price = 1.2.3]",
        "(" * 400 + "//book" + ")" * 400,
        "//book[" + "not(" * 400 + "author" + ")" * 400 + "]",
        "//book" + "[title" * 400 + "]" * 400,
    ], ids=["numeral", "parens", "not", "predicates"])
    def test_hostile_text_is_a_syntax_error_and_keeps_the_connection(
            self, served, text):
        """A 1 KB frame of malformed numerals or deep nesting used to
        escape the parser as ValueError / RecursionError: INTERNAL on
        the wire, a bare ReproError in the client."""
        _db, server, cl = served
        sock, stream = _raw_connection(server)
        try:
            stream.write(encode_frame({"type": "query", "id": 1,
                                       "text": text}))
            stream.flush()
            reply = read_frame(stream)
            assert (reply["type"], reply["code"]) == ("error", "QUERY_SYNTAX")
            stream.write(encode_frame({"type": "ping", "id": 2}))
            stream.flush()
            assert read_frame(stream)["type"] == "pong"
        finally:
            sock.close()
        with pytest.raises(QuerySyntaxError) as info:
            cl.query(text)
        assert type(info.value) is QuerySyntaxError
        assert len(cl.query("//book")) == 3

    def test_mid_stream_disconnect_leaves_server_healthy(self, served):
        db, server, cl = served
        # The first stream executes; the second replays cached bytes.
        for cached in (False, True):
            sock, stream = _raw_connection(server)
            stream.write(encode_frame({"type": "query", "id": 1,
                                       "text": "//book"}))
            stream.flush()
            header = read_frame(stream)
            assert header["type"] == "result_header"
            assert header["cached"] is cached
            sock.close()                     # vanish mid result stream
            # The server keeps serving other connections.
            assert cl.ping()
            assert len(cl.query("//book")) == 3
        # After the abandoned cached stream the next answers match
        # in-process, on this snapshot and on the next one (whose
        # commit retires the cached entries under the audit).
        assert cl.query("//book").serialize() == db.query("//book").serialize()
        service = db.serve()
        batch = service.updater()
        batch.insert_subtree(batch.doc.root, repro.parse("<shelf/>").root)
        batch.commit()
        for query in ("//book", "//shelf"):
            assert cl.query(query).serialize() == db.query(query).serialize()
        audit = cl.stats()["result_cache"]["audit"]
        assert audit["snapshots_invalidated"] >= 1
        assert audit["survivors"] == 0

    def test_deadline_expires_mid_serialization(self):
        service = QueryService(LIBRARY, workers=2)
        try:
            # One item per chunk and an artificial inter-chunk pause
            # guarantee the stream outlives the deadline.
            with Server(service, chunk_items=1,
                        chunk_delay_s=0.08) as server:
                with client_mod.connect(*server.address) as cl:
                    with pytest.raises(QueryTimeoutError):
                        cl.query("//book", timeout_ms=120)
                    # The connection survives a mid-stream abort.
                    assert cl.ping()
                    # The expired request cached its answer: streaming
                    # the cached bytes honours the deadline too.
                    hits = service.stats()["result_cache"]["hits"]
                    with pytest.raises(QueryTimeoutError):
                        cl.query("//book", timeout_ms=120)
                    assert service.stats()["result_cache"]["hits"] == \
                        hits + 1
                    assert cl.ping()
        finally:
            service.close()

    def test_chunks_are_cut_to_the_frame_bound(self):
        """A small ``max_frame_bytes`` splits a result into more chunks,
        each within the bound, and the result arrives whole."""
        bound = 160
        with repro.connect(LIBRARY) as db:
            server = db.listen(max_frame_bytes=bound)
            sock, stream = _raw_connection(server)
            try:
                stream.write(encode_frame({"type": "query", "id": 1,
                                           "text": "//book/title"}))
                stream.flush()
                frames = [read_frame(stream)]
                while frames[-1]["type"] != "result_footer":
                    # Reading under the bound is the assertion that
                    # every frame fits it.
                    frames.append(read_frame(stream, max_frame_bytes=bound))
            finally:
                sock.close()
            chunks = [f for f in frames if f["type"] == "result_chunk"]
            assert len(chunks) > 1          # all 3 fit one 256-item chunk
            items = [decode_item(item) for chunk in chunks
                     for item in chunk["items"]]
            assert frames[-1]["n_items"] == len(items) == 3
            with client_mod.connect(*server.address) as cl:
                assert cl.query("//book/title").serialize() == \
                    db.query("//book/title").serialize()

    def test_item_too_large_for_any_frame_is_a_protocol_error(self):
        with repro.connect(LIBRARY) as db:
            server = db.listen(max_frame_bytes=160)
            with client_mod.connect(*server.address) as cl:
                with pytest.raises(ProtocolError, match="160-byte limit"):
                    cl.query("//book")           # one <book> needs ~200
                # The error frame kept the stream in step.
                assert cl.ping()
                assert len(cl.query("//book/title")) == 3

    def test_client_refusing_a_frame_closes_itself(self, served):
        """A refused frame leaves its body unread: the client must not
        parse those bytes as the next length prefix."""
        _db, server, _cl = served
        cl = client_mod.Client(*server.address, max_frame_bytes=200)
        try:
            with pytest.raises(ProtocolError, match="exceeds the 200-byte"):
                cl.query("//book")
            with pytest.raises(ProtocolError, match="client is closed"):
                cl.ping()
            with pytest.raises(ProtocolError, match="client is closed"):
                cl.query("//book/title")
        finally:
            cl.close()

    def test_server_close_is_idempotent_and_drains(self, served):
        _db, server, cl = served
        assert len(cl.query("//book")) == 3
        server.close()
        server.close()
        assert server.closed


# ----------------------------------------------------------------------
# The adaptive admission controller.
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_window_gates_admissions(self):
        ctl = AdmissionController(start_window=2)
        assert ctl.try_acquire() and ctl.try_acquire()
        assert not ctl.try_acquire()     # window full → shed
        ctl.release(1.0)
        assert ctl.try_acquire()
        assert ctl.stats()["rejected"] == 1

    def test_grows_toward_target_when_fast(self):
        ctl = AdmissionController(target_ms=50.0, start_window=2,
                                  adjust_every=4)
        for _ in range(12):
            assert ctl.try_acquire()
            ctl.release(5.0)             # p50 far below target
        assert ctl.window > 2

    def test_shrinks_when_slow(self):
        ctl = AdmissionController(target_ms=10.0, start_window=16,
                                  adjust_every=4)
        for _ in range(8):
            assert ctl.try_acquire()
            ctl.release(100.0)           # p50 far above target
        assert ctl.window < 16

    def test_growth_is_slow_start_then_linear(self):
        ctl = AdmissionController(target_ms=1000.0, start_window=2,
                                  adjust_every=2, max_window=64)
        ctl.try_acquire(); ctl.release(1.0)
        ctl.try_acquire(); ctl.release(1.0)
        assert ctl.window <= 4           # at most doubled per interval

    def test_backoff_on_overload_and_slow_start_recovery(self):
        ctl = AdmissionController(target_ms=50.0, start_window=16,
                                  adjust_every=4, backoff_interval_s=0.0)
        ctl.try_acquire()
        ctl.release(overloaded=True)
        assert ctl.window == 8           # multiplicative cut
        before = ctl.window
        # First interval after the cut saw the error: growth is refused.
        # The next all-clear interval climbs back in slow-start.
        for _ in range(8):
            ctl.try_acquire()
            ctl.release(1.0)
        assert before < ctl.window <= 16     # climbing back, bounded

    def test_timeout_counts_as_congestion(self):
        ctl = AdmissionController(start_window=8, backoff_interval_s=0.0)
        ctl.try_acquire()
        ctl.release(timed_out=True)
        assert ctl.window == 4
        assert ctl.stats()["backoffs"] == 1

    def test_no_growth_on_error_intervals(self):
        ctl = AdmissionController(target_ms=50.0, start_window=4,
                                  adjust_every=4,
                                  backoff_interval_s=3600.0)
        ctl.try_acquire()
        ctl.release(overloaded=True)     # first backoff (refractory arms)
        cut = ctl.window
        ctl.try_acquire()
        ctl.release(timed_out=True)      # inside refractory: no second cut
        assert ctl.window == cut
        for _ in range(4):               # fast samples, but interval saw
            ctl.try_acquire()            # errors → growth is refused
            ctl.release(1.0)
        assert ctl.window == cut

    def test_refractory_coalesces_backoff_bursts(self):
        ctl = AdmissionController(start_window=16,
                                  backoff_interval_s=3600.0)
        for _ in range(5):
            ctl.try_acquire()
            ctl.release(overloaded=True)
        assert ctl.stats()["backoffs"] == 1
        assert ctl.window == 8           # one cut, not five

    def test_first_backoff_is_honoured_on_a_clock_starting_at_zero(self):
        # time.monotonic() counts from boot on Linux: on a fresh host it
        # is smaller than a long refractory period, and "0.0 = never"
        # would swallow the first overload signal.
        now = [0.0]
        ctl = AdmissionController(start_window=16,
                                  backoff_interval_s=3600.0,
                                  clock=lambda: now[0])
        ctl.try_acquire()
        ctl.release(overloaded=True)
        assert ctl.stats()["backoffs"] == 1      # first: honoured
        assert ctl.window == 8
        now[0] = 1800.0
        ctl.try_acquire()
        ctl.release(overloaded=True)
        assert ctl.stats()["backoffs"] == 1      # inside: coalesced
        now[0] = 3600.0
        ctl.try_acquire()
        ctl.release(overloaded=True)
        assert ctl.stats()["backoffs"] == 2      # interval over
        assert ctl.window == 4

    def test_bad_knobs_are_usage_errors(self):
        with pytest.raises(UsageError):
            AdmissionController(target_ms=0.0)
        with pytest.raises(UsageError):
            AdmissionController(start_window=0)
        with pytest.raises(UsageError):
            AdmissionController(backoff_factor=1.5)

    def test_stats_shape(self):
        ctl = AdmissionController()
        stats = ctl.stats()
        for key in ("window", "inflight", "target_ms", "observed_p50_ms",
                    "admitted", "rejected", "backoffs", "adjustments"):
            assert key in stats


class TestOverloadShedding:
    def test_window_full_sheds_with_overloaded_code(self):
        service = QueryService(LIBRARY, workers=2)
        try:
            # A window of 1 plus a stalled stream occupies the only
            # admission slot; the next query must be shed immediately.
            with Server(service, start_window=1, chunk_items=1,
                        chunk_delay_s=0.2) as server:
                slow_sock, slow_stream = _raw_connection(server)
                try:
                    slow_stream.write(encode_frame(
                        {"type": "query", "id": 1, "text": "//book"}))
                    slow_stream.flush()
                    header = read_frame(slow_stream)
                    assert header["type"] == "result_header"
                    with client_mod.connect(*server.address) as cl:
                        started = time.perf_counter()
                        with pytest.raises(ServiceOverloadedError):
                            cl.query("//book")
                        # Shed fast — no queueing behind the slow one.
                        assert time.perf_counter() - started < 0.15
                finally:
                    slow_sock.close()
        finally:
            service.close()
