"""The network client: the remote mirror of the in-process serving API.

:func:`connect` opens a TCP connection to a :class:`~repro.serve.server.Server`
and returns a :class:`Client` whose surface deliberately mirrors
:class:`~repro.serve.service.QueryService` (one options carrier,
:class:`~repro.engine.request.QueryOptions`, spells both), so moving a
workload from in-process to remote serving is a one-line change::

    import repro.serve.client

    client = repro.serve.client.connect("127.0.0.1", 8399)
    result = client.query("//book[author]/title", timeout_ms=100)
    print(result.serialize())
    plan = client.prepare("//book[price > $p]/title")
    plan.execute(params={"p": 30})
    client.close()

Results come back as :class:`ClientResult`: the streamed item
sequence reassembled, with a ``serialize()`` that reproduces the
in-process :meth:`QueryResult.serialize
<repro.engine.result.QueryResult.serialize>` output *bit-identically*
(the differential suite asserts this) plus the serving metadata the
footer frame carries.  Server-side failures re-raise here as the same
:mod:`repro.errors` class the service would have raised in-process,
reconstructed from the frame's wire code.

The client is synchronous and connection-oriented; one ``Client`` is
one socket and should be used from one thread at a time (open one per
worker thread for concurrent load — connections are cheap).
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from repro.engine.backend import ExecutionBackend
from repro.engine.request import QueryOptions
from repro.engine.result import atom_text
from repro.errors import ProtocolError, error_for_code
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_item,
    encode_frame,
    read_frame,
)

__all__ = ["Client", "ClientResult", "RemotePrepared", "connect"]


def connect(host: str = "127.0.0.1", port: int = 8399, *,
            timeout_s: float | None = 30.0) -> Client:
    """Open a client connection — the remote mirror of
    :func:`repro.connect` + :meth:`Database.serve`.

    ``timeout_s`` bounds the TCP connect and every subsequent
    response wait (``None`` disables the socket timeout).
    """
    return Client(host, port, timeout_s=timeout_s)


class ClientResult:
    """One remote query result: items plus serving metadata.

    ``items`` holds decoded wire items as ``(kind, value)`` pairs —
    ``("node", xml)``, ``("attr", text)`` or ``("atom", value)`` —
    exactly the stream the server sent.  ``serialize()`` /
    ``string_values()`` reproduce the in-process result formatting.
    """

    def __init__(self, items: list[tuple[str, Any]], *,
                 snapshot_id: int, cached: bool,
                 wait_ms: float, run_ms: float, total_ms: float) -> None:
        self.items = items
        self.snapshot_id = snapshot_id
        self.cached = cached
        self.wait_ms = wait_ms
        self.run_ms = run_ms
        #: End-to-end server-side time (receipt to footer).
        self.total_ms = total_ms

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def serialize(self) -> str:
        """Compact serialization, bit-identical to the in-process
        :meth:`QueryResult.serialize` of the same result."""
        parts: list[str] = []
        previous_was_atom = False
        for kind, value in self.items:
            if kind == "atom":
                if previous_was_atom:
                    parts.append(" ")
                parts.append(atom_text(value))
                previous_was_atom = True
            else:
                parts.append(value)
                previous_was_atom = False
        return "".join(parts)

    def string_values(self) -> list[str]:
        """String value per item (nodes are re-parsed locally)."""
        from repro.xmlkit.parser import parse

        values = []
        for kind, value in self.items:
            if kind == "node":
                root = parse(value).root
                values.append(root.string_value() if root is not None else "")
            elif kind == "attr":
                values.append(value)
            else:
                values.append(atom_text(value))
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ClientResult {len(self.items)} items "
                f"snapshot={self.snapshot_id}>")


class RemotePrepared:
    """A server-side prepared statement, scoped to its connection."""

    def __init__(self, client: Client, handle: int, source: str,
                 parameters: list[str],
                 options: QueryOptions | None = None) -> None:
        self._client = client
        self._handle = handle
        #: The prepare-time strategy and executor every execute pins.
        self._options = options if options is not None else QueryOptions()
        self.source = source
        #: External ``$parameter`` names ``execute`` must bind.
        self.parameters = frozenset(parameters)

    def execute(self, *, params: dict | None = None,
                timeout_ms: float | None = None,
                executor: ExecutionBackend | str | None = None
                ) -> ClientResult:
        """Run the prepared statement (kwargs mirror every other
        query surface)."""
        pinned = self._options
        options = QueryOptions(
            pinned.strategy, params, timeout_ms,
            executor if executor is not None else pinned.executor)
        return self._client._roundtrip_result(
            {"type": "execute", "prepared": self._handle,
             **options.to_frame()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"${p}" for p in sorted(self.parameters))
        return (f"RemotePrepared({self.source!r}"
                + (f", parameters=[{params}]" if params else "") + ")")


class Client:
    """One connection to a network server (see :func:`connect`)."""

    def __init__(self, host: str, port: int, *,
                 timeout_s: float | None = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._max_frame_bytes = max_frame_bytes
        self._closed = False
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._stream = self._sock.makefile("rwb")
        hello = read_frame(self._stream, max_frame_bytes)
        if hello.get("type") != "hello":
            raise ProtocolError(
                f"expected a hello frame, got {hello.get('type')!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol {hello.get('protocol')!r}, "
                f"this client v{PROTOCOL_VERSION}")
        #: Server-assigned connection id (tags the server's slow log).
        self.connection_id = hello.get("connection")

    # ------------------------------------------------------------------
    # The query surface (mirrors QueryService).
    # ------------------------------------------------------------------

    def query(self, text: str, *, strategy: str = "auto",
              params: dict | None = None,
              timeout_ms: float | None = None,
              executor: ExecutionBackend | str | None = None
              ) -> ClientResult:
        """Evaluate a query on the server — the remote twin of
        :meth:`QueryService.query <repro.serve.service.QueryService.query>`
        (identical keyword-only kwargs)."""
        options = QueryOptions(strategy, params, timeout_ms, executor)
        return self._roundtrip_result(
            {"type": "query", "text": text, **options.to_frame()})

    def prepare(self, text: str, *, strategy: str = "auto",
                executor: ExecutionBackend | str | None = None
                ) -> RemotePrepared:
        """Prepare a statement server-side; returns its handle object."""
        options = QueryOptions(strategy, executor=executor)
        reply = self._roundtrip(
            {"type": "prepare", "text": text, **options.to_frame()},
            expect="prepared")
        return RemotePrepared(self, reply["prepared"], text,
                              list(reply.get("parameters", [])), options)

    def stats(self) -> dict:
        """The server's versioned ``service.stats()`` payload
        (including the ``server`` admission section)."""
        reply = self._roundtrip({"type": "stats"}, expect="stats")
        return reply["stats"]

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        self._roundtrip({"type": "ping"}, expect="pong")
        return True

    def close(self) -> None:
        """Close the connection.  Idempotent."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._stream.close()
        except OSError:  # pragma: no cover - best-effort close
            pass
        self._sock.close()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire plumbing.
    # ------------------------------------------------------------------

    def _send(self, frame: dict[str, Any]) -> int:
        request_id = self._next_id
        self._next_id += 1
        frame = {"id": request_id, **frame}
        self._stream.write(encode_frame(frame))
        self._stream.flush()
        return request_id

    def _read_for(self, request_id: int) -> dict[str, Any]:
        """Next frame addressed to ``request_id`` (raises on error).

        A frame this client refuses (oversized, truncated, undecodable)
        or the peer hanging up leaves the byte stream out of step, so
        the client closes itself: later calls raise "client is closed"
        instead of reading body bytes as a length prefix.
        """
        while True:
            try:
                frame = read_frame(self._stream, self._max_frame_bytes)
            except (ProtocolError, EOFError):
                self._close_locked()
                raise
            if frame.get("type") == "error":
                if frame.get("id") in (request_id, None):
                    raise error_for_code(frame.get("code", "INTERNAL"),
                                         frame.get("message", "server error"))
                continue        # an error for an abandoned request
            if frame.get("id") == request_id:
                return frame

    def _roundtrip(self, frame: dict[str, Any], *,
                   expect: str) -> dict[str, Any]:
        with self._lock:
            if self._closed:
                raise ProtocolError("client is closed")
            request_id = self._send(frame)
            reply = self._read_for(request_id)
            if reply.get("type") != expect:
                raise ProtocolError(
                    f"expected a {expect} frame, got {reply.get('type')!r}")
            return reply

    def _roundtrip_result(self, frame: dict[str, Any]) -> ClientResult:
        with self._lock:
            if self._closed:
                raise ProtocolError("client is closed")
            request_id = self._send(frame)
            header = self._read_for(request_id)
            if header.get("type") != "result_header":
                raise ProtocolError(
                    "expected a result_header frame, "
                    f"got {header.get('type')!r}")
            items: list[tuple[str, Any]] = []
            while True:
                frame = self._read_for(request_id)
                frame_type = frame.get("type")
                if frame_type == "result_chunk":
                    items.extend(decode_item(item)
                                 for item in frame.get("items", []))
                    continue
                if frame_type == "result_footer":
                    if frame.get("n_items") != len(items):
                        raise ProtocolError(
                            f"result stream truncated: footer says "
                            f"{frame.get('n_items')} items, "
                            f"received {len(items)}")
                    return ClientResult(
                        items,
                        snapshot_id=header.get("snapshot_id"),
                        cached=bool(header.get("cached")),
                        wait_ms=float(frame.get("wait_ms", 0.0)),
                        run_ms=float(frame.get("run_ms", 0.0)),
                        total_ms=float(frame.get("total_ms", 0.0)))
                raise ProtocolError(
                    f"unexpected {frame_type!r} frame inside a result "
                    "stream")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self._sock.getpeername() if not self._closed else "closed"
        return f"<Client {peer}>"
