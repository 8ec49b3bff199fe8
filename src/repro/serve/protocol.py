"""The v1 wire protocol shared by the network server and client.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Every frame carries
``"v": 1`` (the protocol version) and a ``"type"``; request frames add
an ``"id"`` the responses echo, so a connection can interleave the
responses of pipelined requests without ambiguity.

Request types (client → server)
    ``query``
        One-shot evaluation: ``text`` plus the unified optional kwargs
        (``strategy`` / ``params`` / ``timeout_ms`` / ``executor``) —
        the exact spelling of
        :meth:`QueryService.submit <repro.serve.service.QueryService.submit>`,
        encoded, decoded and type-checked only by
        :class:`~repro.engine.request.QueryOptions`.
        ``executor`` travels as the canonical backend key string
        (``"serial"`` / ``"threads:4"`` / ``"processes:4"``, see
        :class:`~repro.engine.backend.ExecutionBackend`).  The
        pre-redesign ``parallelism`` integer field had its one-release
        acceptance window and is now ignored, as is a ``doc`` field: a
        server serves one document.
    ``prepare`` / ``execute``
        Compile-once / execute-many over the wire: ``prepare`` answers
        with a server-side handle and the external ``$parameter``
        names; ``execute`` runs it with ``params``.
    ``stats``
        The versioned :meth:`QueryService.stats
        <repro.serve.service.QueryService.stats>` payload (which
        includes the server's admission-controller section).  The
        frame has no fields; a ``top`` key from an older client is
        ignored like any other unknown key.
    ``ping``
        Liveness / round-trip probe.

Response types (server → client)
    ``hello`` (sent once on connect), ``pong``, ``prepared``,
    ``stats``, then for results a *stream*: one ``result_header``,
    zero or more ``result_chunk`` frames each carrying a slice of the
    item sequence, and a closing ``result_footer`` with the serving
    metadata.  Failures — including a deadline expiring *mid-stream* —
    arrive as an ``error`` frame whose ``code`` is the
    :data:`~repro.errors.WIRE_CODES` code of the raised class; a
    started result stream is abandoned where it stood.

Items travel in a self-describing form (:func:`encode_item` /
:func:`decode_item`) chosen so the client can reproduce
:meth:`QueryResult.serialize <repro.engine.result.QueryResult.serialize>`
*bit-identically*: nodes as their compact XML serialization, attribute
items as their value text, atoms as tagged JSON scalars.

The server never builds a ``result_chunk`` from dicts.  Each item's
compact JSON is encoded once, as a *fragment* (:func:`encode_fragment`:
the bytes ``json.dumps`` would write for :func:`encode_item`), and a
chunk is those fragments joined under a per-request prefix
(:func:`chunk_prefix` / :func:`encode_chunk`) — the same bytes
:func:`encode_frame` would produce.  A cached result keeps its
fragments, so a result-cache hit serializes nothing.  The frame bound
applies outbound too: the server cuts a chunk before it would pass its
``max_frame_bytes``, and answers an item too large for any frame with a
``PROTOCOL`` error instead of a frame the peer would refuse.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from json.encoder import encode_basestring
from typing import Any, BinaryIO

from repro.errors import ProtocolError
from repro.xmlkit.writer import serialize
from repro.xmlkit.tree import Node

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "encode_item",
    "decode_item",
    "encode_fragment",
    "chunk_prefix",
    "encode_chunk",
]

#: Version stamped into (and required of) every frame.
PROTOCOL_VERSION = 1

#: Default inbound frame-size bound.  Frames above it are refused
#: before the payload is read, so a hostile length prefix cannot make
#: the peer allocate unbounded memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def _compact(value: Any) -> bytes:
    """The compact UTF-8 JSON every frame is written in."""
    return json.dumps(value, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one frame: length prefix + compact JSON body.

    ``v`` is stamped in when absent so callers build plain dicts.
    """
    if "v" not in payload:
        payload = {"v": PROTOCOL_VERSION, **payload}
    body = _compact(payload)
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> dict[str, Any]:
    """Decode one frame body; validates shape and version."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"malformed frame: expected a JSON object, "
            f"got {type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this peer speaks v{PROTOCOL_VERSION})")
    if not isinstance(payload.get("type"), str):
        raise ProtocolError("malformed frame: missing 'type'")
    return payload


def read_frame(stream: BinaryIO,
               max_frame_bytes: int = MAX_FRAME_BYTES) -> dict[str, Any]:
    """Blocking read of exactly one frame from a file-like socket.

    Raises :class:`~repro.errors.ProtocolError` on a mid-frame EOF or
    an oversized frame, and :class:`EOFError` on a clean EOF at a frame
    boundary (the peer closed the connection).
    """
    header = stream.read(_LENGTH.size)
    if not header:
        raise EOFError("connection closed")
    if len(header) < _LENGTH.size:
        raise ProtocolError("connection closed mid-frame (truncated length)")
    (length,) = _LENGTH.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte "
            "limit")
    body = b""
    while len(body) < length:
        piece = stream.read(length - len(body))
        if not piece:
            raise ProtocolError("connection closed mid-frame (truncated body)")
        body += piece
    return decode_frame(body)


# ----------------------------------------------------------------------
# Result items on the wire.
# ----------------------------------------------------------------------


def encode_item(item: Any) -> dict[str, Any]:
    """One result item in wire form.

    Nodes serialize to their compact XML (the exact text
    ``QueryResult.serialize`` would emit for them); attribute items to
    their value string; atoms stay tagged JSON scalars so the client
    can re-apply the atom formatting rules instead of trusting
    floating-point round-trips through text.
    """
    if isinstance(item, Node):
        return {"kind": "node", "xml": serialize(item)}
    if isinstance(item, (bool, int, float, str)):
        return {"kind": "atom", "value": item}
    # AttrNode (imported lazily to keep this module's imports light).
    value = getattr(item, "value", None)
    if isinstance(value, str):
        return {"kind": "attr", "value": value}
    raise ProtocolError(
        f"cannot encode result item of type {type(item).__name__}")


def decode_item(payload: dict[str, Any]) -> tuple[str, Any]:
    """Decode one wire item to ``(kind, value)``.

    ``("node", xml_text)`` / ``("attr", value)`` / ``("atom", value)``
    with numeric atoms widened to float — the same widening the engine
    applies, so the client-side serializer (see
    :class:`repro.serve.client.ClientResult`) reproduces
    :func:`~repro.engine.result.atom_text` output exactly.
    """
    kind = payload.get("kind")
    if kind == "node":
        xml = payload.get("xml")
        if not isinstance(xml, str):
            raise ProtocolError("malformed node item")
        return "node", xml
    if kind == "attr":
        value = payload.get("value")
        if not isinstance(value, str):
            raise ProtocolError("malformed attr item")
        return "attr", value
    if kind == "atom":
        value = payload.get("value")
        if isinstance(value, bool) or isinstance(value, str):
            return "atom", value
        if isinstance(value, (int, float)):
            return "atom", float(value)
        raise ProtocolError("malformed atom item")
    raise ProtocolError(f"unknown item kind {kind!r}")


def encode_fragment(item: Any) -> bytes:
    """One result item as wire-ready bytes: exactly the compact JSON of
    :func:`encode_item`, as :func:`encode_frame` would write it inside a
    ``result_chunk``.  Nodes skip the dict and ``json.dumps``: their
    serialization goes straight through the JSON string escaper."""
    if isinstance(item, Node):
        return ('{"kind":"node","xml":' + encode_basestring(serialize(item))
                + "}").encode("utf-8")
    return _compact(encode_item(item))


def chunk_prefix(request_id: Any) -> bytes:
    """The body of a ``result_chunk`` frame up to its first item."""
    return (b'{"v":%d,"type":"result_chunk","id":%s,"items":['
            % (PROTOCOL_VERSION, _compact(request_id)))


def encode_chunk(prefix: bytes, fragments: Sequence[bytes]) -> bytes:
    """One ``result_chunk`` frame from :func:`chunk_prefix` and item
    fragments — byte for byte what :func:`encode_frame` writes for
    ``{"type": "result_chunk", "id": …, "items": [encode_item(…), …]}``.
    The body is the prefix, the comma-joined fragments and ``]}``."""
    body = prefix + b",".join(fragments) + b"]}"
    return _LENGTH.pack(len(body)) + body
