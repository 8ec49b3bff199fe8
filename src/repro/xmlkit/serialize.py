"""XML serialization: tree → text.

Used for result construction output, the data generators (writing test
corpora to disk), and round-trip testing of the parser.
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
    _write(node, out)
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


def pretty(node: Node, indent: str = "  ") -> str:
    """Serialize with indentation (whitespace-insensitive display form).

    Text content is emitted inline when an element has only text children;
    mixed content falls back to compact serialization for that subtree to
    avoid changing its string value.
    """
    out: list[str] = []
    _write_pretty(node, out, 0, indent)
    return "".join(out)


def _only_text_children(node: Node) -> bool:
    return all(c.kind == TEXT for c in node.children)


def _has_text_children(node: Node) -> bool:
    return any(c.kind == TEXT and (c.text or "").strip() for c in node.children)


def _write_pretty(node: Node, out: list[str], depth: int, indent: str) -> None:
    pad = indent * depth
    if node.kind == DOCUMENT:
        for child in node.children:
            _write_pretty(child, out, depth, indent)
        return
    if node.kind == TEXT:
        text = (node.text or "").strip()
        if text:
            out.append(f"{pad}{escape_text(text)}\n")
        return
    attrs = "".join(f' {k}="{escape_attribute(v)}"' for k, v in node.attrs.items())
    if not node.children:
        out.append(f"{pad}<{node.tag}{attrs}/>\n")
    elif _only_text_children(node):
        value = escape_text(node.string_value().strip())
        out.append(f"{pad}<{node.tag}{attrs}>{value}</{node.tag}>\n")
    elif _has_text_children(node):
        out.append(f"{pad}{serialize(node)}\n")
    else:
        out.append(f"{pad}<{node.tag}{attrs}>\n")
        for child in node.children:
            _write_pretty(child, out, depth + 1, indent)
        out.append(f"{pad}</{node.tag}>\n")
