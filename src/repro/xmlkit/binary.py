"""Succinct binary storage for documents (the reference-[22] theme).

The NoK paper this work builds on ("A Succinct Physical Storage Scheme
for Efficient Evaluation of Path Queries in XML", the authors' own
reference [22]) stores documents as a compact structure stream so that
sequential scans — the access method every NoK matcher uses — read far
fewer bytes than the XML text.  This module provides that storage
story for the repository:

* a **tag dictionary** (each distinct name stored once),
* a **structure stream** of variable-length-encoded opcodes
  (open-element with tag id / text with a string-table id / close),
* a **string table** for text and attribute values.

``dump`` serializes a :class:`~repro.xmlkit.tree.Document` to bytes and
``load`` rebuilds it — including all region labels, which are
recomputed by the ordinary :class:`DocumentBuilder` on load, so a
loaded document is indistinguishable from a parsed one (the round-trip
tests assert byte-identical re-serialization).

The format is deliberately simple (no compression library, pure
varints) — the point is the *shape*: structure separated from content,
tags dictionary-encoded, one sequential read to reconstruct or scan.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import ReproError
from repro.xmlkit.tree import ELEMENT, TEXT, Document, DocumentBuilder, Node

__all__ = ["MAGIC", "dump", "load", "StorageError"]

#: File magic of the succinct binary format (format sniffing
#: for :func:`repro.connect`).
MAGIC = b"BTRX1\n"
_MAGIC = MAGIC

# Structure-stream opcodes.
_OP_OPEN = 0          # + tag id varint + attr count + (name id, value id)*
_OP_TEXT = 1          # + string id varint
_OP_CLOSE = 2


class StorageError(ReproError):
    """Raised for malformed binary documents."""


# ----------------------------------------------------------------------
# Varint primitives (LEB128, unsigned).
# ----------------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise StorageError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.data):
                raise StorageError("truncated varint")
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise StorageError("varint too long")

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise StorageError("truncated payload")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def eof(self) -> bool:
        return self.pos >= len(self.data)


# ----------------------------------------------------------------------
# Dump.
# ----------------------------------------------------------------------

def dump(doc: Document) -> bytes:
    """Serialize a document to the succinct binary form."""
    tags: dict[str, int] = {}
    strings: dict[str, int] = {}

    def tag_id(name: str) -> int:
        if name not in tags:
            tags[name] = len(tags)
        return tags[name]

    def string_id(value: str) -> int:
        if value not in strings:
            strings[value] = len(strings)
        return strings[value]

    structure = bytearray()
    for node, entering in _events(doc):
        if node.kind == TEXT:
            if entering:
                _write_varint(structure, _OP_TEXT)
                _write_varint(structure, string_id(node.text or ""))
            continue
        if entering:
            _write_varint(structure, _OP_OPEN)
            _write_varint(structure, tag_id(node.tag or ""))
            _write_varint(structure, len(node.attrs))
            for name, value in node.attrs.items():
                _write_varint(structure, string_id(name))
                _write_varint(structure, string_id(value))
        else:
            _write_varint(structure, _OP_CLOSE)

    out = bytearray(_MAGIC)
    _write_varint(out, len(tags))
    for name in tags:  # dict preserves insertion order == id order
        encoded = name.encode()
        _write_varint(out, len(encoded))
        out.extend(encoded)
    _write_varint(out, len(strings))
    for value in strings:
        encoded = value.encode()
        _write_varint(out, len(encoded))
        out.extend(encoded)
    _write_varint(out, len(structure))
    out.extend(structure)
    return bytes(out)


def _events(doc: Document) -> Iterator[tuple[Node, bool]]:
    """(node, entering) pairs in document order, element scope nested."""
    root = doc.root
    if root is None:
        raise StorageError("document has no root element")
    stack = [(root, True)]
    while stack:
        node, entering = stack.pop()
        yield node, entering
        if entering and node.kind == ELEMENT:
            stack.append((node, False))
            stack.extend((child, True) for child in reversed(node.children))


# ----------------------------------------------------------------------
# Load.
# ----------------------------------------------------------------------

def load(data: bytes) -> Document:
    """Rebuild a document from its binary form (labels recomputed)."""
    if not data.startswith(_MAGIC):
        raise StorageError("not a BlossomTree binary document")
    reader = _Reader(data[len(_MAGIC):])

    n_tags = reader.varint()
    tags = [reader.take(reader.varint()).decode("utf-8") for _ in range(n_tags)]
    n_strings = reader.varint()
    strings = [reader.take(reader.varint()).decode("utf-8")
               for _ in range(n_strings)]

    length = reader.varint()
    body = _Reader(reader.take(length))

    builder = DocumentBuilder()
    depth = 0
    while not body.eof():
        opcode = body.varint()
        if opcode == _OP_OPEN:
            tag = _lookup(tags, body.varint(), "tag")
            n_attrs = body.varint()
            attrs = {}
            for _ in range(n_attrs):
                name = _lookup(strings, body.varint(), "attribute name")
                value = _lookup(strings, body.varint(), "attribute value")
                attrs[name] = value
            builder.start_element(tag, attrs or None)
            depth += 1
        elif opcode == _OP_TEXT:
            builder.text(_lookup(strings, body.varint(), "text"))
        elif opcode == _OP_CLOSE:
            if depth == 0:
                raise StorageError("unbalanced close opcode")
            builder.end_element()
            depth -= 1
        else:
            raise StorageError(f"unknown opcode {opcode}")
    if depth != 0:
        raise StorageError("unbalanced structure stream")
    try:
        return builder.finish()
    except ValueError as exc:
        raise StorageError(str(exc)) from exc


def _lookup(table: list[str], index: int, what: str) -> str:
    if index >= len(table):
        raise StorageError(f"{what} id {index} out of range")
    return table[index]
