"""Flat struct-of-arrays document arena for cross-process scans.

A :class:`DocumentArena` is the columnar twin of the object tree in
:mod:`repro.xmlkit.tree`: one fixed-width column per node field (kind,
tag id, parent, first child, next sibling, region label) plus two
variable-length heaps (text content and attribute maps) and a tag-name
dictionary.  The whole arena serializes to **one contiguous buffer**
(magic ``BTRA1``, the columnar sibling of the ``BTRX1`` opcode stream in
:mod:`repro.xmlkit.binary`) so a snapshot can be written to a file once
and mapped **read-only** into worker processes with ``mmap`` — no
per-worker parse, no per-query pickling of the document.

Workers do not rebuild the object tree.  :class:`ArenaDocument` exposes
the familiar :class:`~repro.xmlkit.tree.Document` surface over the raw
columns, materializing :class:`ArenaNode` views lazily and exactly once
per slot (identity-stable, so ``parent.children.index(node)`` and
sibling binary searches behave like the built tree).  ``ArenaNode`` *is
a* :class:`~repro.xmlkit.tree.Node` — the NoK matcher, the XPath
evaluator and the six physical operators run on it unchanged — but its
``parent`` / ``children`` / ``attrs`` are read-only properties backed by
the columns, decoded on first touch.

Why this preserves Theorem 1 across processes: the columns are stored in
pre-order, node ids are pre-order ranks, and the region labels are
copied verbatim from the build — so document order, ancestorship and
subtree ranges are pure integer arithmetic over the buffer, identical in
every process that maps it.  A partition scan over the arena therefore
emits matches in exactly the order the serial object-tree scan would,
and partition-order concatenation reproduces the serial output bit for
bit (the differential suite in ``tests/test_process_backend.py`` pins
this, backend by backend).
"""

from __future__ import annotations

import json
import mmap
import struct
from array import array
from bisect import bisect_left
from collections.abc import Iterator

from repro.errors import ReproError
from repro.xmlkit.tree import ELEMENT, TEXT, Document, Node

__all__ = [
    "ArenaDocument",
    "ArenaNode",
    "DocumentArena",
]

#: Magic prefix of the serialized arena — the columnar sibling of the
#: ``BTRX1`` opcode-stream format.
MAGIC = b"BTRA1\n"

_HEADER = struct.Struct("<6sxxQQQ")  # magic, n_nodes, tag_blob_len, heap_len
_NO_PAYLOAD = -1

# Raw slot-storage descriptors of the shadowed Node fields.  ArenaNode
# overrides ``parent``/``children``/``attrs`` with properties; the
# original member descriptors keep working as hidden cache storage on
# the subclass instances.
_CHILDREN_SLOT = Node.__dict__["children"]
_ATTRS_SLOT = Node.__dict__["attrs"]


def _pad4(n: int) -> int:
    return (4 - n % 4) % 4


class DocumentArena:
    """The columnar snapshot: parallel columns plus heaps over one buffer.

    Build with :meth:`from_document`, serialize with :meth:`to_bytes`,
    reopen zero-copy with :meth:`from_buffer` (typically over an
    ``mmap``).  Column cells are little-endian ``int32``; string data
    stays raw UTF-8 in the heap and is sliced (not copied) until a node
    view actually decodes it.
    """

    __slots__ = ("n_nodes", "tag_names", "tag_ids", "kind", "tag_id",
                 "parent", "first_child", "next_sibling", "start", "end",
                 "level", "payload_off", "payload_len", "heap", "_buffer")

    def __init__(self) -> None:
        self.n_nodes = 0
        #: tag dictionary: id -> name and name -> id.
        self.tag_names: list[str] = []
        self.tag_ids: dict[str, int] = {}
        self.kind: bytes | memoryview = b""
        self.tag_id: array | memoryview = array("i")
        self.parent: array | memoryview = array("i")
        self.first_child: array | memoryview = array("i")
        self.next_sibling: array | memoryview = array("i")
        self.start: array | memoryview = array("i")
        self.end: array | memoryview = array("i")
        self.level: array | memoryview = array("i")
        self.payload_off: array | memoryview = array("i")
        self.payload_len: array | memoryview = array("i")
        self.heap: bytes | memoryview = b""
        #: The backing buffer (mmap or bytes) a zero-copy arena views;
        #: held so the mapping outlives every column view.
        self._buffer: object | None = None

    # ------------------------------------------------------------------
    # Building.
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, doc: Document) -> DocumentArena:
        """Flatten a built object tree into columns (one pass)."""
        arena = cls()
        n = len(doc.nodes)
        arena.n_nodes = n
        kind = bytearray(n)
        tag_id = array("i", bytes(4 * n))
        parent = array("i", bytes(4 * n))
        first_child = array("i", bytes(4 * n))
        next_sibling = array("i", bytes(4 * n))
        start = array("i", bytes(4 * n))
        end = array("i", bytes(4 * n))
        level = array("i", bytes(4 * n))
        payload_off = array("i", bytes(4 * n))
        payload_len = array("i", bytes(4 * n))
        heap = bytearray()
        tag_ids = arena.tag_ids
        tag_names = arena.tag_names
        for node in doc.nodes:
            nid = node.nid
            kind[nid] = node.kind
            if node.tag is None:
                tag_id[nid] = -1
            else:
                tid = tag_ids.get(node.tag)
                if tid is None:
                    tid = tag_ids[node.tag] = len(tag_names)
                    tag_names.append(node.tag)
                tag_id[nid] = tid
            parent[nid] = node.parent.nid if node.parent is not None else -1
            kids = node.children
            first_child[nid] = kids[0].nid if kids else -1
            for a, b in zip(kids, kids[1:]):
                next_sibling[a.nid] = b.nid
            if kids:
                next_sibling[kids[-1].nid] = -1
            start[nid] = node.start
            end[nid] = node.end
            level[nid] = node.level
            payload: bytes | None = None
            if node.kind == TEXT:
                payload = (node.text or "").encode("utf-8")
            elif node.kind == ELEMENT and node.attrs:
                payload = json.dumps(node.attrs,
                                     ensure_ascii=False).encode("utf-8")
            if payload is None:
                payload_off[nid] = _NO_PAYLOAD
                payload_len[nid] = 0
            else:
                payload_off[nid] = len(heap)
                payload_len[nid] = len(payload)
                heap.extend(payload)
        arena.kind = bytes(kind)
        arena.tag_id = tag_id
        arena.parent = parent
        arena.first_child = first_child
        arena.next_sibling = next_sibling
        arena.start = start
        arena.end = end
        arena.level = level
        arena.payload_off = payload_off
        arena.payload_len = payload_len
        arena.heap = bytes(heap)
        return arena

    # ------------------------------------------------------------------
    # Serialization: one contiguous buffer.
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a single contiguous buffer (``BTRA1`` layout)."""
        tag_blob = b"\x00".join(name.encode("utf-8")
                                for name in self.tag_names)
        out = bytearray()
        out += _HEADER.pack(MAGIC, self.n_nodes, len(tag_blob),
                            len(bytes(self.heap)))
        out += tag_blob
        out += b"\x00" * _pad4(len(out))
        out += bytes(self.kind)
        out += b"\x00" * _pad4(self.n_nodes)
        for column in (self.tag_id, self.parent, self.first_child,
                       self.next_sibling, self.start, self.end, self.level,
                       self.payload_off, self.payload_len):
            out += bytes(bytearray(column) if isinstance(column, memoryview)
                         else column.tobytes())
        out += bytes(self.heap)
        return bytes(out)

    @classmethod
    def from_buffer(cls, buf: bytes | bytearray | mmap.mmap
                    ) -> DocumentArena:
        """Reopen a serialized arena **zero-copy**: every column is a
        ``memoryview`` cast over ``buf`` (typically a read-only mmap),
        so attaching costs O(tag-dictionary), not O(document)."""
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise ReproError("arena buffer is truncated")
        magic, n_nodes, tag_blob_len, heap_len = _HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            raise ReproError(
                f"not a BTRA1 arena (bad magic {magic!r})")
        arena = cls()
        arena._buffer = buf
        arena.n_nodes = n_nodes
        pos = _HEADER.size
        tag_blob = bytes(view[pos:pos + tag_blob_len])
        arena.tag_names = ([part.decode("utf-8")
                            for part in tag_blob.split(b"\x00")]
                           if tag_blob else [])
        arena.tag_ids = {name: tid
                         for tid, name in enumerate(arena.tag_names)}
        pos += tag_blob_len
        pos += _pad4(pos)
        arena.kind = view[pos:pos + n_nodes]
        pos += n_nodes + _pad4(n_nodes)
        if pos + 9 * 4 * n_nodes + heap_len > len(view):
            raise ReproError("arena buffer is truncated")
        columns = []
        for _ in range(9):
            columns.append(view[pos:pos + 4 * n_nodes].cast("i"))
            pos += 4 * n_nodes
        (arena.tag_id, arena.parent, arena.first_child, arena.next_sibling,
         arena.start, arena.end, arena.level, arena.payload_off,
         arena.payload_len) = columns
        if pos + heap_len > len(view):
            raise ReproError("arena buffer is truncated (heap)")
        arena.heap = view[pos:pos + heap_len]
        return arena

    # ------------------------------------------------------------------
    # Decoding helpers for node views.
    # ------------------------------------------------------------------

    def tag_of(self, nid: int) -> str | None:
        tid = self.tag_id[nid]
        return self.tag_names[tid] if tid >= 0 else None

    def payload_bytes(self, nid: int) -> bytes | None:
        off = self.payload_off[nid]
        if off < 0:
            return None
        return bytes(self.heap[off:off + self.payload_len[nid]])

    def document(self) -> ArenaDocument:
        """A lazily-materializing :class:`Document` view over this arena."""
        return ArenaDocument(self)


class ArenaNode(Node):
    """A thin lazily-materialized :class:`Node` view over arena columns.

    Scalar fields (kind, tag, text, region label) are decoded at
    materialization; ``parent``/``children``/``attrs`` are read-only
    properties resolved against the columns on first access (children
    and attrs cache their decoded value in the shadowed slot storage).
    The view is created at most once per slot by its owning
    :class:`ArenaDocument`, so node identity works exactly as in the
    object tree.
    """

    __slots__ = ()

    def __init__(self, doc: ArenaDocument, nid: int) -> None:
        # Deliberately does NOT call Node.__init__: parent/children/attrs
        # are shadowed by properties here and must stay unset until the
        # columns resolve them.
        arena = doc.arena
        self.doc = doc
        self.nid = nid
        self.kind = arena.kind[nid]
        self.tag = arena.tag_of(nid)
        if self.kind == TEXT:
            payload = arena.payload_bytes(nid)
            self.text = payload.decode("utf-8") if payload is not None else ""
        else:
            self.text = None
        self.start = arena.start[nid]
        self.end = arena.end[nid]
        self.level = arena.level[nid]
        self._string_value = None

    @property  # type: ignore[override]
    def parent(self) -> Node | None:
        pid = self.doc.arena.parent[self.nid]
        return self.doc.nodes[pid] if pid >= 0 else None

    @property  # type: ignore[override]
    def children(self) -> list[Node]:
        try:
            return _CHILDREN_SLOT.__get__(self, ArenaNode)
        except AttributeError:
            arena = self.doc.arena
            nodes = self.doc.nodes
            kids: list[Node] = []
            child = arena.first_child[self.nid]
            while child >= 0:
                kids.append(nodes[child])
                child = arena.next_sibling[child]
            _CHILDREN_SLOT.__set__(self, kids)
            return kids

    @property  # type: ignore[override]
    def attrs(self) -> dict[str, str]:
        try:
            return _ATTRS_SLOT.__get__(self, ArenaNode)
        except AttributeError:
            attrs: dict[str, str] = {}
            if self.kind == ELEMENT:
                payload = self.doc.arena.payload_bytes(self.nid)
                if payload is not None:
                    attrs = json.loads(payload.decode("utf-8"))
            _ATTRS_SLOT.__set__(self, attrs)
            return attrs

    def first_child(self) -> Node | None:  # type: ignore[override]
        child = self.doc.arena.first_child[self.nid]
        return self.doc.nodes[child] if child >= 0 else None

    def following_sibling(self) -> Node | None:  # type: ignore[override]
        sib = self.doc.arena.next_sibling[self.nid]
        return self.doc.nodes[sib] if sib >= 0 else None


class _LazyNodeList:
    """Identity-stable lazy ``doc.nodes``: one ArenaNode per slot, built
    on first index."""

    __slots__ = ("_doc", "_cache")

    def __init__(self, doc: ArenaDocument, n_nodes: int) -> None:
        self._doc = doc
        self._cache: list[ArenaNode | None] = [None] * n_nodes

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index: int | slice
                    ) -> Node | list[Node]:
        if isinstance(index, slice):
            return [self[i] for i  # type: ignore[misc]
                    in range(*index.indices(len(self._cache)))]
        if index < 0:
            index += len(self._cache)
        node = self._cache[index]
        if node is None:
            node = self._cache[index] = ArenaNode(self._doc, index)
        return node

    def __iter__(self) -> Iterator[Node]:
        for i in range(len(self._cache)):
            yield self[i]  # type: ignore[misc]


class ArenaDocument(Document):
    """A :class:`Document` whose node list materializes lazily from a
    :class:`DocumentArena` — what a worker process sees after mmap."""

    def __init__(self, arena: DocumentArena) -> None:
        # Deliberately does not call Document.__init__ (which would
        # build an object-tree document node).
        self.arena = arena
        self.nodes = _LazyNodeList(  # type: ignore[assignment]
            self, arena.n_nodes)
        self.root = None
        #: tag -> its elements' nids in document order (lazy, per tag).
        self._postings: dict[str, array] = {}
        root = arena.first_child[0] if arena.n_nodes else -1
        while root >= 0:
            if arena.kind[root] == ELEMENT:
                self.root = self.nodes[root]  # type: ignore[assignment]
                break
            root = arena.next_sibling[root]

    def postings(self, tag: str, start_nid: int, stop_nid: int) -> list[Node]:
        """The object tree's :meth:`Document.postings` read off the
        columns: per tag, the element nids are collected once per
        attached arena, and a node view is materialized only for the
        postings inside the range asked for."""
        nids = self._postings.get(tag)
        if nids is None:
            arena = self.arena
            wanted, kinds = arena.tag_ids.get(tag), arena.kind
            nids = self._postings[tag] = array("i", [
                nid for nid, tid in enumerate(arena.tag_id)
                if tid == wanted and kinds[nid] == ELEMENT])
        nodes = self.nodes
        return [nodes[nid] for nid in  # type: ignore[misc]
                nids[bisect_left(nids, start_nid):
                     bisect_left(nids, stop_nid)]]

    def materialized(self) -> int:
        """Node views built so far (tests/introspection)."""
        nodes = self.nodes
        assert isinstance(nodes, _LazyNodeList)
        return sum(1 for node in nodes._cache if node is not None)
