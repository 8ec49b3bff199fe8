"""The network serving front end: an asyncio TCP server over a service.

This is the socket layer the ROADMAP's "millions of users" north star
needs: remote clients speak the length-prefixed JSON frame protocol of
:mod:`repro.serve.protocol` to a :class:`Server`, which fronts an
in-process :class:`~repro.serve.service.QueryService` with

* **adaptive admission** — a latency-targeting window
  (:class:`~repro.serve.throttle.AdmissionController`) decides, per
  request, whether to admit or shed; rejected requests get a fast
  ``OVERLOADED`` error frame instead of a growing queue;
* **per-request deadlines** — a frame's ``timeout_ms`` starts at frame
  receipt and rides into the service (and from there into the
  cooperative :class:`~repro.xmlkit.storage.CancellationToken`
  checkpoints inside every physical operator); the deadline is also
  enforced *between result chunks*, so a slow client cannot hold a
  worker past its budget;
* **streaming results** — item sequences leave in bounded
  ``result_chunk`` frames rather than one giant message: at most
  ``chunk_items`` items, cut earlier when the frame would pass
  ``max_frame_bytes``, and built by joining the items' wire fragments
  (a cached result carries them, so a cache hit serializes nothing);
* **graceful drain** — :meth:`Server.close` stops accepting, lets
  in-flight requests finish (bounded by ``drain_timeout_s``), then
  closes connections.

The event loop runs on a dedicated thread, so the server composes with
ordinary synchronous code::

    with repro.connect(xml) as db:
        server = db.listen()                  # 127.0.0.1, ephemeral port
        client = repro.serve.client.connect(*server.address)
        client.query("//book[author]/title", timeout_ms=100)

Admission decisions surface as ``repro_server_*`` metrics and as the
``server`` section of ``service.stats()``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Sequence
from typing import Any

from repro.errors import (
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ServiceOverloadedError,
    UsageError,
    wire_code,
)
from repro.engine.database import Database
from repro.engine.request import (DEFAULT_DOCUMENT, QueryOptions,
                                  check_timeout_ms, require)
from repro.obs.metrics import REGISTRY
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    chunk_prefix,
    decode_frame,
    encode_chunk,
    encode_fragment,
    encode_frame,
)
from repro.serve.service import QueryService, ServeResult

__all__ = ["Server", "listen"]

_CONNECTIONS = REGISTRY.counter(
    "repro_server_connections_total", "Client connections accepted")
_ACTIVE = REGISTRY.gauge(
    "repro_server_active_connections", "Currently open client connections")
_FRAMES_IN = REGISTRY.counter(
    "repro_server_frames_in_total", "Request frames received")
_FRAMES_OUT = REGISTRY.counter(
    "repro_server_frames_out_total", "Response frames sent")
_BYTES_IN = REGISTRY.counter(
    "repro_server_bytes_in_total", "Payload bytes received")
_BYTES_OUT = REGISTRY.counter(
    "repro_server_bytes_out_total", "Payload bytes sent")
_PROTOCOL_ERRORS = REGISTRY.counter(
    "repro_server_protocol_errors_total",
    "Frames rejected as malformed, oversized or wrong-version")
_REQUESTS = REGISTRY.counter(
    "repro_server_requests_total", "Requests served (all frame types)")

#: Request frame types the dispatcher accepts.
_REQUEST_TYPES = frozenset(
    {"query", "prepare", "execute", "stats", "ping"})


class _Connection:
    """Per-connection state: id, writer, pipelined request tasks."""

    __slots__ = ("cid", "writer", "send_lock", "tasks", "prepared",
                 "next_prepared")

    def __init__(self, cid: str, writer: asyncio.StreamWriter) -> None:
        self.cid = cid
        self.writer = writer
        self.send_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()
        #: prepared-statement handles — ``(text, options, doc)`` — live
        #: for the connection's lifetime.
        self.prepared: dict[int, tuple[str, QueryOptions, str | None]] = {}
        self.next_prepared = 1


class Server:
    """A TCP front end over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The query service to front.  ``owns_service=True`` makes
        :meth:`close` close it too (what :func:`listen` sets when it
        builds the service itself).
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back
        from :attr:`address`).
    target_ms / start_window / max_window:
        Admission-controller knobs (see
        :class:`~repro.serve.throttle.AdmissionController`).
    default_timeout_ms:
        Deadline applied to frames that carry none (checked by the same
        rule as ``timeout_ms``).
    max_frame_bytes:
        Frame-size bound, an ``int`` >= 1.  Oversized inbound frames are
        refused and the connection closed; outbound ``result_chunk``
        frames are cut to fit it, and an item too large for any frame
        answers a ``PROTOCOL`` error.
    chunk_items:
        Most result items per ``result_chunk`` frame, an ``int`` >= 1.
    drain_timeout_s:
        Bound on how long :meth:`close` waits for in-flight requests, a
        finite number of seconds >= 0.
    chunk_delay_s:
        Artificial pause between result chunks — a test hook for
        exercising mid-stream deadline expiry; leave at 0 in production.
    """

    def __init__(self, service: QueryService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 target_ms: float = 50.0, start_window: int = 2,
                 max_window: int = 64,
                 default_timeout_ms: float | None = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 chunk_items: int = 256,
                 drain_timeout_s: float = 10.0,
                 chunk_delay_s: float = 0.0,
                 owns_service: bool = False) -> None:
        from repro.serve.throttle import AdmissionController

        require("max_frame_bytes", max_frame_bytes, "an int >= 1", minimum=1)
        require("chunk_items", chunk_items, "an int >= 1", minimum=1)
        check_timeout_ms("default_timeout_ms", default_timeout_ms)
        require("drain_timeout_s", drain_timeout_s,
                "a finite number of seconds >= 0", (int, float))
        self.service = service
        self.admission = AdmissionController(
            target_ms=target_ms, start_window=start_window,
            max_window=max_window)
        self.default_timeout_ms = default_timeout_ms
        self.max_frame_bytes = max_frame_bytes
        self.chunk_items = chunk_items
        self.drain_timeout_s = drain_timeout_s
        self.chunk_delay_s = chunk_delay_s
        self._owns_service = owns_service

        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._next_cid = 1
        self._closed = False
        self._lock = threading.Lock()
        self._started = time.time()

        ready: threading.Event = threading.Event()
        startup: dict[str, Any] = {}
        self._thread = threading.Thread(
            target=self._run_loop, args=(host, port, ready, startup),
            name="repro-server", daemon=True)
        self._thread.start()
        ready.wait()
        if "error" in startup:
            raise startup["error"]
        self.address: tuple[str, int] = startup["address"]
        self.service.add_stats_section("server", self._stats_section)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, shut down.

        Idempotent.  In-flight requests get up to ``drain_timeout_s``
        to finish; connections then close and the loop thread exits.
        A server built by :func:`listen` over its own service closes
        that service too.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            future.result(timeout=self.drain_timeout_s + 10.0)
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=10.0)
        self.service.remove_stats_section("server")
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> Server:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        """``service.stats()`` — which includes this server's section."""
        return self.service.stats()

    def _stats_section(self) -> dict:
        with self._lock:
            active = len(self._connections)
        return {
            "address": list(self.address),
            "uptime_s": round(time.time() - self._started, 3),
            "active_connections": active,
            "admission": self.admission.stats(),
        }

    # ------------------------------------------------------------------
    # Event loop plumbing.
    # ------------------------------------------------------------------

    def _run_loop(self, host: str, port: int, ready: threading.Event,
                  startup: dict[str, Any]) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle_connection, host, port))
        except OSError as exc:
            startup["error"] = UsageError(
                f"cannot listen on {host}:{port}: {exc}")
            ready.set()
            loop.close()
            return
        self._server = server
        startup["address"] = server.sockets[0].getsockname()[:2]
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _shutdown(self) -> None:
        """Runs on the loop: stop accepting, drain, close connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        with self._lock:
            connections = list(self._connections)
        pending = [task for conn in connections for task in conn.tasks]
        if pending:
            await asyncio.wait(pending, timeout=self.drain_timeout_s)
        for conn in connections:
            conn.writer.close()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        with self._lock:
            cid = f"c{self._next_cid}"
            self._next_cid += 1
            conn = _Connection(cid, writer)
            self._connections.add(conn)
        _CONNECTIONS.inc()
        _ACTIVE.set(len(self._connections))
        try:
            await self._send(conn, {
                "type": "hello", "server": "repro",
                "protocol": 1, "connection": cid})
            await self._read_loop(conn, reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass        # client went away mid-frame; nothing to answer
        finally:
            # Drain this connection's in-flight requests before closing
            # (their writes fail soft if the peer is already gone).
            if conn.tasks:
                await asyncio.wait(list(conn.tasks),
                                   timeout=self.drain_timeout_s)
            with self._lock:
                self._connections.discard(conn)
            _ACTIVE.set(len(self._connections))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_loop(self, conn: _Connection,
                         reader: asyncio.StreamReader) -> None:
        while not self._closed:
            header = await reader.readexactly(4)
            length = int.from_bytes(header, "big")
            if length > self.max_frame_bytes:
                _PROTOCOL_ERRORS.inc()
                await self._send_error(conn, None, ProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"))
                return      # cannot resync a stream we refuse to read
            body = await reader.readexactly(length)
            _FRAMES_IN.inc()
            _BYTES_IN.inc(length)
            try:
                frame = decode_frame(body)
            except ProtocolError as exc:
                _PROTOCOL_ERRORS.inc()
                await self._send_error(conn, None, exc)
                return      # malformed bytes: the framing is untrusted
            frame_type = frame.get("type")
            if frame_type not in _REQUEST_TYPES:
                _PROTOCOL_ERRORS.inc()
                await self._send_error(conn, frame.get("id"), ProtocolError(
                    f"unknown frame type {frame_type!r}"))
                continue    # framing is intact; keep the connection
            task = asyncio.ensure_future(self._dispatch(conn, frame))
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)

    # ------------------------------------------------------------------
    # Request dispatch.
    # ------------------------------------------------------------------

    async def _dispatch(self, conn: _Connection,
                        frame: dict[str, Any]) -> None:
        request_id = frame.get("id")
        started = time.perf_counter()
        _REQUESTS.inc()
        try:
            frame_type = frame["type"]
            if frame_type == "ping":
                await self._send(conn, {"type": "pong", "id": request_id})
                return
            if frame_type == "stats":
                await self._send(conn, {"type": "stats", "id": request_id,
                                        "stats": self.service.stats()})
                return
            if frame_type == "prepare":
                await self._prepare(conn, request_id, frame)
                return
            # query / execute: the admission window gates real work.
            # _serve_query owns the matching release (it knows whether
            # the outcome was success, overload or a deadline miss).
            if not self.admission.try_acquire():
                await self._send_error(conn, request_id,
                                       ServiceOverloadedError(
                                           "admission window is full"))
                return
            await self._serve_query(conn, request_id, frame, started)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            await self._send_error(conn, request_id, exc)

    async def _prepare(self, conn: _Connection, request_id: Any,
                       frame: dict[str, Any]) -> None:
        text = frame.get("text")
        if not isinstance(text, str):
            raise ProtocolError("prepare frame carries no query text")
        options, doc = QueryOptions.from_frame(frame)
        # Validate the query and learn its external parameters by
        # compiling once against the current snapshot; executions go
        # through the service (and hit the shared plan cache).
        snapshot = self.service.catalog.pin(doc or DEFAULT_DOCUMENT)
        try:
            engine = self.service.catalog.engine_for(snapshot)
            prepared = engine.prepare(text, strategy=options.strategy,
                                      executor=options.executor)
            parameters = sorted(prepared.parameters)
        finally:
            self.service.catalog.unpin(snapshot)
        handle = conn.next_prepared
        conn.next_prepared += 1
        conn.prepared[handle] = (text, options, doc)
        await self._send(conn, {
            "type": "prepared", "id": request_id, "prepared": handle,
            "parameters": parameters})

    async def _serve_query(self, conn: _Connection, request_id: Any,
                           frame: dict[str, Any], started: float) -> None:
        """Run one admitted query/execute frame end to end."""
        outcome_overloaded = False
        outcome_timed_out = False
        latency_ms: float | None = None
        try:
            spec = (frame.get("text"), None, None)
            if frame["type"] == "execute":
                handle = frame.get("prepared")
                spec = (conn.prepared.get(handle)
                        if isinstance(handle, int) else None)
                if spec is None:
                    raise UsageError(
                        f"unknown prepared handle {handle!r} (prepared "
                        "statements are scoped to their connection)")
            text, pinned, doc = spec
            if not isinstance(text, str):
                raise ProtocolError("query frame carries no query text")
            options, doc = QueryOptions.from_frame(
                frame, pinned, doc, self.default_timeout_ms)
            deadline = (started + options.timeout_ms / 1000.0
                        if options.timeout_ms is not None else None)
            future = self.service._submit(text, doc, options,
                                          f"{conn.cid}#{request_id}")
            served: ServeResult = await asyncio.wrap_future(future)
            await self._stream_result(conn, request_id, served, deadline,
                                      started)
            latency_ms = (time.perf_counter() - started) * 1e3
        except ServiceOverloadedError:
            outcome_overloaded = True
            raise
        except QueryTimeoutError:
            outcome_timed_out = True
            raise
        finally:
            self.admission.release(latency_ms,
                                   overloaded=outcome_overloaded,
                                   timed_out=outcome_timed_out)

    async def _stream_result(self, conn: _Connection, request_id: Any,
                             served: ServeResult, deadline: float | None,
                             started: float) -> None:
        """Send header / chunks / footer, honoring the deadline.

        Chunks join the items' wire fragments: a cacheable request's
        come with it (built once at admission), any other is encoded
        here, once.
        """
        await self._send(conn, {
            "type": "result_header", "id": request_id,
            "snapshot_id": served.snapshot_id,
            "cached": served.cached})
        fragments = served.fragments
        if fragments is None:
            fragments = [encode_fragment(item) for item in served.items]
        prefix = chunk_prefix(request_id)
        # Item bytes a chunk may carry: the bound less the prefix and
        # the closing "]}".
        budget = self.max_frame_bytes - len(prefix) - 2
        offset = 0
        while offset < len(fragments):
            if deadline is not None and time.perf_counter() >= deadline:
                raise QueryTimeoutError(
                    "deadline expired while streaming the result",
                    timeout_ms=round((deadline - started) * 1e3, 3))
            if self.chunk_delay_s:
                await asyncio.sleep(self.chunk_delay_s)
            end = self._chunk_end(fragments, offset, budget)
            if end == offset:
                raise ProtocolError(
                    f"result item {offset} needs a frame of "
                    f"{len(prefix) + len(fragments[offset]) + 2} bytes, "
                    f"over the {self.max_frame_bytes}-byte limit")
            await self._write(conn, encode_chunk(prefix,
                                                 fragments[offset:end]))
            offset = end
        await self._send(conn, {
            "type": "result_footer", "id": request_id,
            "n_items": len(fragments),
            "wait_ms": round(served.wait_ms, 3),
            "run_ms": round(served.run_ms, 3),
            "total_ms": round((time.perf_counter() - started) * 1e3, 3)})

    def _chunk_end(self, fragments: Sequence[bytes], offset: int,
                   budget: int) -> int:
        """End of the chunk starting at ``offset``: at most
        ``chunk_items`` fragments whose bytes, comma-joined, fit
        ``budget`` (``offset`` itself when the first alone does not)."""
        end = min(offset + self.chunk_items, len(fragments))
        size = sum(map(len, fragments[offset:end])) + end - offset - 1
        while size > budget and end > offset:
            end -= 1
            size -= len(fragments[end]) + 1
        return end

    # ------------------------------------------------------------------
    # Frame output.
    # ------------------------------------------------------------------

    async def _send(self, conn: _Connection, payload: dict[str, Any]) -> None:
        await self._write(conn, encode_frame(payload))

    async def _write(self, conn: _Connection, data: bytes) -> None:
        """Write one encoded frame; every frame sent goes through here."""
        async with conn.send_lock:
            conn.writer.write(data)
            await conn.writer.drain()
        _FRAMES_OUT.inc()
        _BYTES_OUT.inc(len(data))

    async def _send_error(self, conn: _Connection, request_id: Any,
                          error: BaseException) -> None:
        payload: dict[str, Any] = {
            "type": "error", "id": request_id,
            "code": wire_code(error),
            "error": type(error).__name__
            if isinstance(error, ReproError) else "ReproError",
            "message": str(error) or type(error).__name__,
        }
        queue_depth = getattr(error, "queue_depth", None)
        if queue_depth is not None:
            payload["queue_depth"] = queue_depth
        timeout_ms = getattr(error, "timeout_ms", None)
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        try:
            await self._send(conn, payload)
        except (ConnectionError, OSError):
            pass        # peer vanished; the error has nowhere to go

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "listening"
        return f"<Server {state} on {self.host}:{self.port}>"


def listen(target, *, host: str = "127.0.0.1", port: int = 0,
           workers: int = 4, **options) -> Server:
    """Start a network server over ``target`` — the module-level twin of
    :meth:`Database.listen <repro.engine.database.Database.listen>`.

    ``target`` may be a running :class:`QueryService` (served as-is), a
    :class:`~repro.engine.database.Database` (its :meth:`serve
    <repro.engine.database.Database.serve>` service is used), or
    anything :class:`QueryService` accepts as a source (a
    :class:`~repro.serve.catalog.Catalog`, a parsed document, XML
    text) — in which case the server builds, owns and eventually
    closes the service.  Remaining ``options`` go to :class:`Server`.
    """
    owns = False
    if isinstance(target, QueryService):
        service = target
    elif isinstance(target, Database):
        service = target.serve(workers=workers)
    else:
        service = QueryService(target, workers=workers)
        owns = True
    try:
        return Server(service, host=host, port=port, owns_service=owns,
                      **options)
    except BaseException:
        if owns:                    # a refused setting or a failed bind
            service.close()
        raise
