"""XML serialization: tree → text.

Used for result construction output, the data generators (writing test
corpora to disk), and round-trip testing of the parser.

:func:`serialize` recurses, which is the fast path for the shallow
items queries return; a node deeper than the interpreter's recursion
limit is written again by an explicit-stack walk with the same output.
:func:`pretty`, a display form, walks with an explicit stack only.
"""

from __future__ import annotations

from repro.xmlkit.tree import DOCUMENT, TEXT, Node

__all__ = ["escape_text", "escape_attribute", "serialize", "pretty"]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted output."""
    return escape_text(value).replace('"', "&quot;")


def serialize(node: Node) -> str:
    """Serialize a node (element, text, or document) to compact XML."""
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
        for piece in content:
            if isinstance(piece, str):
                out.append(escape_text(piece))
            else:
                _write(piece, out)
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
        stack.extend(escape_text(piece) if isinstance(piece, str) else piece
                     for piece in reversed(children))


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

