"""XML serialization: tree → text.

Used for result construction output, the data generators (writing test
corpora to disk), and round-trip testing of the parser.

A node's compact serialization is one contiguous run of its document's
serialization, as its subtree is one interval of ``doc.nodes``.  So
:func:`serialize` answers a node of a document version that has
derived state with a slice of that version's serialized-text column
(``doc.derived.xml``, a :class:`TextColumn`): no walk.  The column is
built by its first reader in one flat pre-order pass
(:func:`text_column`, which needs no recursion), shared by a fork and
patched by an update (:func:`patched_column`; see
:mod:`repro.xmlkit.derived`).  A constructed element's document pieces
are slices too.  The recursive raw writer serves the rest: constructed
content, and a document with no live derived state (never read, or
retired), which it must not rebuild.  A node deeper than the
interpreter's recursion limit is written again by an explicit-stack
walk with the same output.  :func:`pretty`, a display form, walks with
an explicit stack only.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from repro.xmlkit.tree import DOCUMENT, TEXT, Node

__all__ = ["escape_text", "escape_attribute", "serialize", "pretty",
           "TextColumn", "text_column", "patched_column"]

_NID = attrgetter("nid")


class TextColumn(NamedTuple):
    """A document version's compact serialization, and per nid the
    bounds of the node's own: ``text[lo[nid]:hi[nid]]``.  Immutable:
    a patch builds a new one, so versions can share it."""

    text: str
    lo: array[int]
    hi: array[int]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted output."""
    return escape_text(value).replace('"', "&quot;")


def serialize(node: Node) -> str:
    """Serialize a node (element, text, or document) to compact XML.

    A node of a document with live derived state that is still
    ``doc.nodes[node.nid]`` is a slice of the version's column; the raw
    writer serves constructed content (whose pending slots are never
    touched), a document with no live derived state (never read, or
    retired: nothing is rebuilt for it) and a node cut out of its
    document (which keeps its old ``nid``).
    """
    if node.content is None:
        doc = node.doc
        state = doc._derived
        if state is not None:
            nid, nodes = node.nid, doc.nodes
            if nid < len(nodes) and nodes[nid] is node:
                # The property builds the column on first read.
                text, lo, hi = state._xml or state.xml
                return text[lo[nid]:hi[nid]]
    out: list[str] = []
    try:
        _write(node, out)
    except RecursionError:
        out = []
        _write_deep(node, out)
    return "".join(out)


def _write(node: Node, out: list[str]) -> None:
    if node.kind == DOCUMENT:
        for child in node.children:
            _write(child, out)
        return
    if node.kind == TEXT:
        out.append(escape_text(node.text or ""))
        return
    out.append(f"<{node.tag}")
    for name, value in node.attrs.items():
        out.append(f' {name}="{escape_attribute(value)}"')
    content = node.content      # a Constructed's pending str / Node pieces
    children = node.children if content is None else content
    if not children:
        out.append("/>")
        return
    out.append(">")
    if content is None:
        for child in children:
            _write(child, out)
    else:
        for piece in content:   # a document piece is a slice
            out.append(escape_text(piece) if isinstance(piece, str)
                       else serialize(piece))
    out.append(f"</{node.tag}>")


def _write_deep(node: Node, out: list[str]) -> None:
    """:func:`_write` for any depth: a ``str`` on the stack is output
    ready to append, a node is still to be written."""
    stack: list[Node | str] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if item.kind == DOCUMENT:
            stack.extend(reversed(item.children))
            continue
        if item.kind == TEXT:
            out.append(escape_text(item.text or ""))
            continue
        out.append(f"<{item.tag}")
        for name, value in item.attrs.items():
            out.append(f' {name}="{escape_attribute(value)}"')
        content = item.content
        children = item.children if content is None else content
        if not children:
            out.append("/>")
            continue
        out.append(">")
        stack.append(f"</{item.tag}>")
        if content is None:
            stack.extend(reversed(children))
        else:
            stack.extend(escape_text(piece) if isinstance(piece, str)
                         else serialize(piece) for piece in reversed(content))


def text_column(run: Sequence[Node]) -> TextColumn:
    """Serialize the pre-order ``run`` of one subtree (a whole
    ``doc.nodes``, document node first, or a spliced-in subtree) in one
    flat pass, with the bounds of each node's text indexed by its
    position in ``run`` — the raw writer's output, at any depth.

    A node's end is written when a node at its level or above comes
    next.  The list collects shared pieces (``<tag>``, ``</tag>`` and
    ``<tag/>`` once per tag) and remembers piece positions; the
    character offsets are their running lengths, summed once at the end
    (every index and offset is kept in an ``array``: no transient int
    objects).
    """
    out: list[str] = []
    starts = array("I")
    ends = array("I", [0]) * len(run)
    opened: list[tuple[int, int, str]] = []    # (level, position, end)
    tags: dict[str | None, tuple[str, str, str]] = {}
    for at, node in enumerate(run):
        level = node.level
        while opened and opened[-1][0] >= level:
            _, begun, close = opened.pop()
            out.append(close)
            ends[begun] = len(out)
        starts.append(len(out))
        if node.kind == TEXT:
            out.append(escape_text(node.text or ""))
        elif node.kind == DOCUMENT:
            opened.append((level, at, ""))
            continue
        else:
            tag = node.tag
            pieces = tags.get(tag)
            if pieces is None:
                pieces = tags[tag] = (f"<{tag}>", f"</{tag}>", f"<{tag}/>")
            attrs = node.attrs
            if attrs:
                out.append(f"<{tag}")
                for name, value in attrs.items():
                    out.append(f' {name}="{escape_attribute(value)}"')
            if node.children:
                out.append(">" if attrs else pieces[0])
                opened.append((level, at, pieces[1]))
                continue
            out.append("/>" if attrs else pieces[2])
        ends[at] = len(out)
    while opened:
        _, begun, close = opened.pop()
        out.append(close)
        ends[begun] = len(out)
    offset = array("I", accumulate(map(len, out), initial=0))
    return TextColumn("".join(out), array("I", map(offset.__getitem__, starts)),
                      array("I", map(offset.__getitem__, ends)))


def patched_column(column: TextColumn, parent: Node, run: list[Node],
                   sign: int) -> TextColumn | None:
    """``column`` after the pre-order ``run`` of one subtree was spliced
    in (``sign`` 1) or cut out (-1) under the element ``parent`` and the
    document relabeled: the text spliced at the run's offset, the run's
    bounds from :func:`text_column`, the tail's shifted and each
    ancestor's end moved.  ``None`` when ``parent`` changes form
    (``<p/>`` ⇄ ``<p>…</p>``: it had, or keeps, no other child); the
    next reader builds the column.
    """
    text, lo, hi = column
    siblings = parent.children
    at, moved = run[0].nid, len(run)
    if sign > 0:
        if len(siblings) == 1:
            return None
        sub = text_column(run)
        index = bisect_left(siblings, at, key=_NID)
        # After the previous sibling's old end, else at the next
        # sibling's old start (its nid has moved by the run).
        x = (hi[siblings[index - 1].nid] if index
             else lo[siblings[index + 1].nid - moved])
        shift = len(sub.text)
        text = text[:x] + sub.text + text[x:]
        new_lo = lo[:at] + _shifted(sub.lo, x)
        new_hi = hi[:at] + _shifted(sub.hi, x)
        tail = at
    else:
        if not siblings:
            return None
        x = lo[at]
        shift = x - hi[at]
        text = text[:x] + text[x - shift:]
        new_lo, new_hi = lo[:at], hi[:at]
        tail = at + moved
    new_lo += _shifted(lo[tail:], shift)
    new_hi += _shifted(hi[tail:], shift)
    above: Node | None = parent
    while above is not None:
        new_hi[above.nid] += shift
        above = above.parent
    return TextColumn(text, new_lo, new_hi)


def _shifted(offsets: array[int], by: int) -> array[int]:
    """``offsets`` each moved by ``by``, as one big-integer addition
    over their bytes: every result is itself an offset (no lane
    overflows or borrows), so lane ``i`` of the sum is ``offsets[i] +
    by``.  Linear in C, where a per-item map makes an int per item."""
    order, width = sys.byteorder, offsets.itemsize
    lanes = int.from_bytes(abs(by).to_bytes(width, order) * len(offsets),
                           order)
    value = int.from_bytes(offsets.tobytes(), order)
    value = value + lanes if by >= 0 else value - lanes
    return array(offsets.typecode,
                 value.to_bytes(width * len(offsets), order))


def pretty(node: Node, indent: str = "  ") -> str:
    """Serialize with indentation (whitespace-insensitive display form).

    Text content is emitted inline when an element has only text children;
    mixed content falls back to compact serialization for that subtree to
    avoid changing its string value.
    """
    out: list[str] = []
    stack: list[tuple[Node, int] | str] = [(node, 0)]  # as in _write_deep
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        current, depth = item
        if current.kind == DOCUMENT:
            stack.extend((child, depth) for child in reversed(current.children))
            continue
        line, close = _pretty_lines(current, indent * depth)
        out.append(line)
        if close is not None:
            stack.append(close)
            stack.extend((child, depth + 1) for child in reversed(current.children))
    return "".join(out)


def _only_text_children(node: Node) -> bool:
    return all(c.kind == TEXT for c in node.children)


def _has_text_children(node: Node) -> bool:
    return any(c.kind == TEXT and (c.text or "").strip() for c in node.children)


def _pretty_lines(node: Node, pad: str) -> tuple[str, str | None]:
    """A text node's or element's display line, and the closing line
    when its children go on lines of their own (else ``None``)."""
    if node.kind == TEXT:
        text = (node.text or "").strip()
        return (f"{pad}{escape_text(text)}\n" if text else ""), None
    attrs = "".join(f' {k}="{escape_attribute(v)}"' for k, v in node.attrs.items())
    if not node.children:
        return f"{pad}<{node.tag}{attrs}/>\n", None
    if _only_text_children(node):
        value = escape_text(node.string_value().strip())
        return f"{pad}<{node.tag}{attrs}>{value}</{node.tag}>\n", None
    if _has_text_children(node):
        return f"{pad}{serialize(node)}\n", None
    return f"{pad}<{node.tag}{attrs}>\n", f"{pad}</{node.tag}>\n"

