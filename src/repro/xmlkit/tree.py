"""XML tree data model.

This module defines the in-memory document representation used by every
layer above it: the navigational NoK matcher, the structural-join
operators, the XPath/XQuery evaluators and the serializer.

Design notes
------------
* Nodes are small ``__slots__`` objects kept in a single document-order
  list on the :class:`Document`; the list position *is* the pre-order rank,
  which makes document-order comparison an integer comparison.
* Every node carries an extended pre/post **region label**
  ``(start, end, level)`` assigned at build time.  ``u`` is an ancestor of
  ``v`` iff ``u.start < v.start and v.end < u.end``.  This is the classic
  encoding used by structural joins and TwigStack (Section 2.1 of the
  paper).
* Elements, text nodes and the document root share one node class,
  distinguished by ``kind``.  Attributes are stored as a dict on the
  element; the pattern-matching subset of the paper never navigates *into*
  attributes structurally, but XPath ``@name`` tests are supported.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.obs.metrics import REGISTRY     # repro.obs imports no xmlkit

if TYPE_CHECKING:  # pragma: no cover - xmlkit.derived imports this module
    from repro.xmlkit.derived import DerivedState

__all__ = [
    "DOCUMENT",
    "ELEMENT",
    "TEXT",
    "Node",
    "Constructed",
    "Document",
    "DocumentBuilder",
    "parse_number",
]

# Node kinds.  Plain ints (not an Enum) because kind checks sit on the
# hottest paths of the scan operators.
DOCUMENT = 0
ELEMENT = 1
TEXT = 2

_KIND_NAMES = {DOCUMENT: "document", ELEMENT: "element", TEXT: "text"}
_NID = attrgetter("nid")
_MATERIALISED = REGISTRY.counter(
    "repro_constructed_materialised_total",
    "Constructed elements copied when navigated (the copies deferral "
    "did not avoid; never the oracle's)")
_MATERIALISE = threading.RLock()
_PENDING = frozenset(("doc", "parent", "children", "end"))


def parse_number(text: str) -> float | None:
    """The one numeric lexical rule: ``text`` as a number, else ``None``.

    A number is an optional sign, digits with an optional fraction (or a
    leading-dot fraction), an optional exponent, and surrounding blanks.
    Every comparison, ``number()`` and ``order by`` coerces through
    here, so ``"Nan"``, ``"inf"`` and ``"1_0"`` are text everywhere.
    """
    try:
        number = float(text)
    except ValueError:
        return None
    # float() reads more: the words nan / inf / infinity (non-finite from
    # a leading letter; an overflowing decimal is still a number),
    # digit-group underscores and non-ASCII digits.
    if number - number != 0.0 and text.strip().lstrip("+-")[:1] in "nNiI":
        return None
    if "_" in text or not (text.isascii() or text.strip().isascii()):
        return None
    return number


class Node:
    """A single node of an XML tree.

    Attributes
    ----------
    doc:
        Owning :class:`Document`.
    nid:
        Pre-order rank; index of this node in ``doc.nodes``.  Comparing
        ``nid`` values compares document order.
    kind:
        One of :data:`DOCUMENT`, :data:`ELEMENT`, :data:`TEXT`.
    tag:
        Element tag name; ``None`` for text nodes, ``"#document"`` for the
        document node.
    text:
        Character content for text nodes; ``None`` otherwise.
    attrs:
        Attribute dict for elements (empty dict when absent).
    parent:
        Parent node, ``None`` for the document node.
    children:
        Child nodes in document order.
    start, end, level:
        Region label: ``start`` and ``end`` bracket the subtree in a global
        counter sequence; ``level`` is the depth (document node = 0).
    """

    __slots__ = (
        "doc",
        "nid",
        "kind",
        "tag",
        "text",
        "attrs",
        "parent",
        "children",
        "start",
        "end",
        "level",
        "_string_value",
    )

    #: A :class:`Constructed` element's pending content, else ``None``.
    content: list[str | Node] | None = None

    def __init__(self, doc: Document, nid: int, kind: int, tag: str | None,
                 text: str | None = None):
        self.doc = doc
        self.nid = nid
        self.kind = kind
        self.tag = tag
        self.text = text
        self.attrs: dict[str, str] = {}
        self.parent: Node | None = None
        self.children: list[Node] = []
        self.start = -1
        self.end = -1
        self.level = -1
        self._string_value: str | None = None

    # ------------------------------------------------------------------
    # Navigation primitives (used by Algorithm 2's depth-first traversal).
    # ------------------------------------------------------------------

    def first_child(self) -> Node | None:
        """Return the first child in document order, or ``None``."""
        return self.children[0] if self.children else None

    def following_sibling(self) -> Node | None:
        """Return the next sibling in document order, or ``None``."""
        parent = self.parent
        if parent is None:
            return None
        siblings = parent.children
        # Locate self among siblings by document order (binary search on nid).
        lo, hi = 0, len(siblings) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if siblings[mid].nid < self.nid:
                lo = mid + 1
            elif siblings[mid].nid > self.nid:
                hi = mid - 1
            else:
                return siblings[mid + 1] if mid + 1 < len(siblings) else None
        return None

    def next_in_document(self) -> Node | None:
        """Return the next node in document order (pre-order successor)."""
        nxt = self.nid + 1
        nodes = self.doc.nodes
        return nodes[nxt] if nxt < len(nodes) else None

    # ------------------------------------------------------------------
    # Structural predicates via region labels.
    # ------------------------------------------------------------------

    def is_ancestor_of(self, other: Node) -> bool:
        """True iff ``self`` is a proper ancestor of ``other``."""
        return self.start < other.start and other.end < self.end

    def is_parent_of(self, other: Node) -> bool:
        """True iff ``self`` is the parent of ``other``."""
        return other.parent is self

    def precedes(self, other: Node) -> bool:
        """Document-order ``<<`` comparison (self strictly before other)."""
        return self.nid < other.nid

    def subtree(self) -> Iterator[Node]:
        """Iterate this node and all descendants in document order."""
        nodes = self.doc.nodes
        stop = self.nid + self.subtree_size()
        for i in range(self.nid, stop):
            yield nodes[i]

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (self included)."""
        # Region counters advance by 1 at each entry and exit, so a subtree
        # with k nodes spans exactly 2k counter values.
        return (self.end - self.start + 1) // 2

    def descendants(self) -> Iterator[Node]:
        """Iterate proper descendants in document order."""
        it = self.subtree()
        next(it)  # drop self
        return it

    def ancestors(self) -> Iterator[Node]:
        """Iterate proper ancestors from parent up to the document node."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # ------------------------------------------------------------------
    # Values.
    # ------------------------------------------------------------------

    def string_value(self) -> str:
        """XPath string value: concatenated descendant text (cached)."""
        if self._string_value is None:
            if self.kind == TEXT:
                self._string_value = self.text or ""
            else:
                parts = [n.text or "" for n in self.subtree() if n.kind == TEXT]
                self._string_value = "".join(parts)
        return self._string_value

    def typed_value(self) -> object:
        """Best-effort numeric interpretation of the string value.

        Returns a ``float`` when the trimmed string value parses as a
        number, otherwise the trimmed string itself.  This mirrors XPath
        1.0-style untyped comparison without dragging in a schema system.
        """
        raw = self.string_value().strip()
        number = parse_number(raw)
        return raw if number is None else number

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = _KIND_NAMES[self.kind]
        if self.kind == TEXT:
            snippet = (self.text or "")[:20]
            return f"<Node {kind} {snippet!r} nid={self.nid}>"
        return f"<Node {kind} {self.tag} nid={self.nid} region=({self.start},{self.end},{self.level})>"


class Constructed(Node):
    """A constructed element whose ``content`` is text and *references*
    to source nodes (the paper's NestedList, Figure 6, in construction).

    Serialization and string values read that list.  The first read of
    a ``_PENDING`` slot copies it, once, under a lock, into a document
    whose root is this node; ``<<`` and ``is`` read the preset label.
    """

    __slots__ = ("content",)

    def __init__(self, tag: str, attrs: dict[str, str], content: list[str | Node]) -> None:
        # Not Node.__init__: the _PENDING slots stay unset until read.
        self.nid = self.start = self.level = 1
        self.kind, self.tag, self.text, self.attrs = ELEMENT, tag, None, attrs
        self._string_value, self.content = None, content

    def __getattr__(self, name: str) -> object:
        if name not in _PENDING:
            raise AttributeError(name)
        self.materialise()
        return object.__getattribute__(self, name)

    def string_value(self) -> str:
        content = self.content
        if self._string_value is None and content is not None:
            self._string_value = "".join(
                piece if type(piece) is str else piece.string_value()
                for piece in content)
        return Node.string_value(self)

    def materialise(self) -> None:
        """Copy the pending content into this node's own document."""
        with _MATERIALISE:
            if self.content is None:
                return
            builder = DocumentBuilder()
            builder.append(self)
            doc = builder.finish()
            copy = doc.nodes[1]
            for child in copy.children:
                child.parent = self
            doc.nodes[1] = doc.root = self
            doc.document_node.children = [self]
            # ``children`` last: until then, lock-free reads wait here.
            self.end, self.parent, self.doc = copy.end, copy.parent, doc
            self.content = None
            self.children = copy.children
        _MATERIALISED.inc()


def deep_equal(a: Node | None, b: Node | None) -> bool:
    """XQuery ``fn:deep-equal`` over single nodes or ``None``.

    Two ``None`` values (empty sequences) are deep-equal; a node is never
    deep-equal to an empty sequence.  Elements are deep-equal when their
    tags, attribute maps, and normalized child sequences are pairwise
    deep-equal.  Whitespace-only text nodes are ignored, matching how the
    paper's Example 2 compares ``author`` subtrees.
    """
    if a is None or b is None:
        return a is b
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x.kind != y.kind:
            return False
        if x.kind == TEXT:
            if (x.text or "").strip() != (y.text or "").strip():
                return False
            continue
        if x.tag != y.tag or x.attrs != y.attrs:
            return False
        x_kids = [c for c in x.children if not _ignorable(c)]
        y_kids = [c for c in y.children if not _ignorable(c)]
        if len(x_kids) != len(y_kids):
            return False
        pairs.extend(zip(x_kids, y_kids))
    return True


def deep_equal_sequences(xs: Iterable[Node | None], ys: Iterable[Node | None]) -> bool:
    """``fn:deep-equal`` over two node sequences (pairwise, same length)."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        return False
    return all(deep_equal(a, b) for a, b in zip(xs, ys, strict=True))


def _ignorable(node: Node) -> bool:
    return node.kind == TEXT and not (node.text or "").strip()


class Document:
    """An XML document: the node arena, plus everything computed from
    this version of it (:attr:`derived`)."""

    _derived: DerivedState | None = None

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.root: Node | None = None  # document element
        doc_node = Node(self, 0, DOCUMENT, "#document")
        # A rootless document's region; the builder moves ``end``.
        doc_node.start, doc_node.end, doc_node.level = 0, 1, 0
        self.nodes.append(doc_node)

    @property
    def document_node(self) -> Node:
        """The synthetic root above the document element."""
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def elements(self) -> Iterator[Node]:
        """All element nodes in document order."""
        return (n for n in self.nodes if n.kind == ELEMENT)

    @property
    def derived(self) -> DerivedState:
        """This version's statistics, summary, tag index and arena file
        (:mod:`repro.xmlkit.derived`), each inherited from the previous
        version or built on first read."""
        state = self._derived
        if state is None:
            from repro.xmlkit.derived import DerivedState

            # Atomic: racing first readers all get the one stored object
            # (two owners would mean two arena files).
            state = vars(self).setdefault("_derived", DerivedState(self))
        return state

    def drop_derived(self) -> bool:
        """The one invalidation call (an update batch spliced its fork,
        or a version will not be read again): unlinks the arena file,
        forgets :attr:`derived`.
        ``True`` iff a materialised tag index went with it — the
        Section-2.1 maintenance cost of an update."""
        state = vars(self).pop("_derived", None)
        if state is None:
            return False
        state.unlink_arena()
        return state.index.built

    def elements_by_tag(self, tag: str) -> list[Node]:
        """Document-ordered list of elements with the given tag — the
        postings of this version's one tag index."""
        return self.derived.index.nodes(tag)

    def postings(self, tag: str, start_nid: int, stop_nid: int) -> list[Node]:
        """:meth:`elements_by_tag` within node ids ``[start_nid,
        stop_nid)`` — what a named-root scan walks
        (:func:`~repro.xmlkit.storage.scan_candidates`)."""
        nodes = self.derived.index.nodes(tag)
        return nodes[bisect_left(nodes, start_nid, key=_NID):
                     bisect_left(nodes, stop_nid, key=_NID)]

    def distinct_tags(self) -> list[str]:
        """Sorted list of distinct element tag names."""
        return sorted(self.derived.index.tags())


class DocumentBuilder:
    """Incremental builder used by the parser and the data generators.

    The builder enforces well-formedness of the nesting it is given and
    assigns pre-order ranks, levels and region labels as it goes, so a
    document is fully labeled the moment :meth:`finish` returns.
    """

    def __init__(self) -> None:
        self.doc = Document()
        self._stack: list[Node] = [self.doc.document_node]
        self._counter = 0
        doc_node = self.doc.document_node
        doc_node.start = self._counter
        self._counter += 1

    def start_element(self, tag: str, attrs: dict[str, str] | None = None) -> Node:
        """Open an element as a child of the current open element."""
        parent = self._stack[-1]
        if parent.kind == DOCUMENT and self.doc.root is not None:
            raise ValueError("document may have only one root element")
        node = Node(self.doc, len(self.doc.nodes), ELEMENT, tag)
        if attrs:
            node.attrs = dict(attrs)
        node.parent = parent
        node.level = parent.level + 1
        node.start = self._counter
        self._counter += 1
        parent.children.append(node)
        self.doc.nodes.append(node)
        self._stack.append(node)
        if self.doc.root is None and parent.kind == DOCUMENT:
            self.doc.root = node
        return node

    def end_element(self) -> Node:
        """Close the most recently opened element."""
        if len(self._stack) <= 1:
            raise ValueError("end_element with no open element")
        node = self._stack.pop()
        node.end = self._counter
        self._counter += 1
        return node

    def text(self, content: str) -> Node | None:
        """Append a text node to the current open element.

        Adjacent text is merged into one node, and text directly under the
        document node is rejected unless it is whitespace (which is
        silently dropped), matching XML well-formedness rules.
        """
        parent = self._stack[-1]
        if parent.kind == DOCUMENT:
            if content.strip():
                raise ValueError("character data outside the document element")
            return None
        if parent.children and parent.children[-1].kind == TEXT:
            last = parent.children[-1]
            last.text = (last.text or "") + content
            last._string_value = None
            return last
        node = Node(self.doc, len(self.doc.nodes), TEXT, None, content)
        node.parent = parent
        node.level = parent.level + 1
        node.start = self._counter
        self._counter += 1
        node.end = self._counter
        self._counter += 1
        parent.children.append(node)
        self.doc.nodes.append(node)
        return node

    def append(self, piece: str | Node) -> None:
        """Deep-copy ``piece`` (text, or any node) under the open element."""
        # ``None`` on the stack closes the element opened before it.
        stack: list[str | Node | None] = [piece]
        while stack:
            item = stack.pop()
            if item is None:
                self.end_element()
            elif isinstance(item, str) or item.kind == TEXT:
                self.text(item if isinstance(item, str) else item.text or "")
            else:
                if item.kind == ELEMENT:
                    self.start_element(item.tag or "", item.attrs or None)
                    stack.append(None)
                content = item.content
                stack.extend(reversed(item.children if content is None
                                      else content))

    def element(self, tag: str, text: str | None = None,
                attrs: dict[str, str] | None = None) -> Node:
        """Convenience: open an element, add optional text, and close it."""
        node = self.start_element(tag, attrs)
        if text is not None:
            self.text(text)
        self.end_element()
        return node

    def finish(self) -> Document:
        """Finalize labels and return the completed document."""
        if len(self._stack) != 1:
            open_tags = [n.tag for n in self._stack[1:]]
            raise ValueError(f"unclosed elements at finish: {open_tags}")
        doc_node = self.doc.document_node
        doc_node.end = self._counter
        self._counter += 1
        if self.doc.root is None:
            raise ValueError("document has no root element")
        return self.doc
