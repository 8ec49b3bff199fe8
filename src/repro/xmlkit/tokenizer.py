"""Hand-written XML tokenizer.

Produces a flat stream of lexical events from XML text.  The scanner
covers the subset of XML needed for data-oriented documents: elements,
attributes (both quote styles), character data with the five predefined
entities plus numeric character references, CDATA sections, comments,
processing instructions, an optional XML declaration, and an internal
DOCTYPE that is skipped.  Namespaces are treated as plain colonized
names.

The tokenizer is deliberately independent of the tree model: its one
consumer, :mod:`repro.xmlkit.parser`, turns the event stream into a
document.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.errors import XMLSyntaxError

__all__ = [
    "START",
    "END",
    "CHARS",
    "COMMENT",
    "PI",
    "Event",
    "tokenize",
]

# Event kinds.
START = "start"      # payload: (tag, attrs)
END = "end"          # payload: tag
CHARS = "chars"      # payload: text
COMMENT = "comment"  # payload: text
PI = "pi"            # payload: (target, data)


@dataclass(frozen=True)
class Event:
    """One lexical event.

    ``kind`` is one of the module-level constants; ``value`` holds the
    payload described next to each constant.  ``line``/``column`` locate
    the event start in the source (1-based).
    """

    kind: str
    value: object
    line: int
    column: int


_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Cursor over the raw text with line/column tracking."""

    __slots__ = ("text", "pos", "line", "col")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)

    def advance(self, count: int = 1) -> str:
        """Consume ``count`` characters, maintaining line/column."""
        chunk = self.text[self.pos:self.pos + count]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count
        return chunk

    def error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.line, self.col)

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error(f"expected {literal!r}")
        self.advance(len(literal))

    def skip_whitespace(self) -> None:
        while not self.eof() and self.peek() in " \t\r\n":
            self.advance()

    def read_name(self) -> str:
        if self.eof() or self.peek() not in _NAME_START:
            raise self.error("expected a name")
        start = self.pos
        while not self.eof() and self.peek() in _NAME_CHARS:
            self.advance()
        return self.text[start:self.pos]

    def read_until(self, terminator: str, what: str) -> str:
        """Consume and return text up to (not including) ``terminator``."""
        idx = self.text.find(terminator, self.pos)
        if idx < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:idx]
        self.advance(len(chunk))
        self.advance(len(terminator))
        return chunk


def _decode_entities(raw: str, scanner: _Scanner) -> str:
    """Expand ``&name;`` and numeric character references in ``raw``."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end < 0:
            raise scanner.error("unterminated entity reference")
        name = raw[i + 1:end]
        if name.startswith("#"):
            digits = name[2:] if name[1:2] in ("x", "X") else name[1:]
            base = 16 if name[1:2] in ("x", "X") else 10
            try:
                out.append(chr(int(digits, base)))
            except (ValueError, OverflowError) as exc:
                raise scanner.error(
                    f"invalid character reference &{name};") from exc
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};")
        i = end + 1
    return "".join(out)


def _read_attributes(scanner: _Scanner) -> dict[str, str]:
    attrs: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return attrs
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in "\"'":
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        value = scanner.read_until(quote, "attribute value")
        if name in attrs:
            raise scanner.error(f"duplicate attribute {name!r}")
        attrs[name] = _decode_entities(value, scanner)


def tokenize(text: str) -> Iterator[Event]:
    """Yield lexical :class:`Event` objects for an XML document string.

    The stream is *not* validated for balanced tags — that is the tree
    parser's job — but all lexical errors (bad names, unterminated
    constructs, stray ``<``) are raised here with positions.
    """
    scanner = _Scanner(text)
    # Optional XML declaration.
    if scanner.startswith("﻿"):
        scanner.advance()
    if scanner.startswith("<?xml"):
        scanner.advance(5)
        scanner.read_until("?>", "XML declaration")

    while not scanner.eof():
        line, col = scanner.line, scanner.col
        if scanner.peek() != "<":
            # Character data run.
            idx = scanner.text.find("<", scanner.pos)
            if idx < 0:
                idx = len(scanner.text)
            raw = scanner.text[scanner.pos:idx]
            scanner.advance(len(raw))
            yield Event(CHARS, _decode_entities(raw, scanner), line, col)
            continue

        if scanner.startswith("<!--"):
            scanner.advance(4)
            body = scanner.read_until("-->", "comment")
            if "--" in body:
                raise scanner.error("'--' not allowed inside a comment")
            yield Event(COMMENT, body, line, col)
        elif scanner.startswith("<![CDATA["):
            scanner.advance(9)
            body = scanner.read_until("]]>", "CDATA section")
            yield Event(CHARS, body, line, col)
        elif scanner.startswith("<!DOCTYPE"):
            _skip_doctype(scanner)
        elif scanner.startswith("<?"):
            scanner.advance(2)
            target = scanner.read_name()
            body = scanner.read_until("?>", "processing instruction").strip()
            yield Event(PI, (target, body), line, col)
        elif scanner.startswith("</"):
            scanner.advance(2)
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect(">")
            yield Event(END, name, line, col)
        else:
            scanner.expect("<")
            name = scanner.read_name()
            attrs = _read_attributes(scanner)
            scanner.skip_whitespace()
            if scanner.startswith("/>"):
                scanner.advance(2)
                yield Event(START, (name, attrs), line, col)
                yield Event(END, name, line, col)
            else:
                scanner.expect(">")
                yield Event(START, (name, attrs), line, col)


def _skip_doctype(scanner: _Scanner) -> None:
    """Consume a DOCTYPE declaration including an internal subset."""
    scanner.advance(len("<!DOCTYPE"))
    depth = 0
    while not scanner.eof():
        ch = scanner.peek()
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            scanner.advance()
            return
        scanner.advance()
    raise scanner.error("unterminated DOCTYPE")
