"""Query results: the items a query returns, and the content rule that
fills a constructed element.

Both the BlossomTree engine and the naive oracle interpreter fill their
constructed elements (:class:`~repro.xmlkit.tree.Constructed`) through
:func:`content_pieces`, so any disagreement between them in tests is a
disagreement about *matching*, never about output formatting.

A constructed element references its content and is copied into a
document of its own (XQuery constructor semantics: constructed content
is a copy, detached from the input document) only when navigated: no
update edits a document it reads (an update batch edits a fork).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.xmlkit.writer import pretty, serialize
from repro.xmlkit.tree import DOCUMENT, TEXT, Node
from repro.xpath.evaluator import AttrNode, string_value

__all__ = ["QueryResult", "atom_text", "content_pieces"]

Item = Node | AttrNode | str | float | bool


def atom_text(item: Item) -> str:
    """Render a non-node item (or a node's string value) as text."""
    if isinstance(item, (Node, AttrNode)):
        return item.string_value()
    return string_value(item)


def content_pieces(items: Iterable[Item], pieces: list[str | Node]) -> None:
    """Append one enclosed sequence's content to ``pieces`` (XQuery 3.1
    §3.9.1.3): adjacent atoms joined by a space, an attribute or text
    node as its text, a document node as its children, other nodes by
    reference; zero-length text dropped."""
    previous_was_atom = False
    for item in items:
        text = ""
        if isinstance(item, AttrNode):
            text = item.value
        elif not isinstance(item, Node):
            text = (" " if previous_was_atom else "") + atom_text(item)
        elif item.kind == TEXT:
            text = item.text or ""
        elif item.kind == DOCUMENT:
            pieces.extend(item.children)
        else:
            pieces.append(item)
        if text:
            pieces.append(text)
        previous_was_atom = not isinstance(item, (Node, AttrNode))


class QueryResult:
    """The value of a query: an ordered sequence of items.

    Items are nodes (from the input document or freshly constructed) or
    atoms.  Provides canonical serializations used throughout the tests
    to compare engines.

    When the query ran with ``trace=True``, ``trace`` holds the
    finished :class:`~repro.obs.trace.QueryTrace`; ``counters`` holds
    the run's :class:`~repro.xmlkit.storage.ScanCounters` whenever the
    session had them (all non-naive paths).  ``plan`` is the text of
    the plan that produced the items and ``strategy`` the strategy that
    actually executed — this run's own, whatever else the engine was
    serving meanwhile.
    """

    def __init__(self, items: Sequence[Item]) -> None:
        self.items = list(items)
        self.trace = None       # QueryTrace | None, set by the session
        self.counters = None    # ScanCounters | None, set by the session
        self.plan = None        # str | None, set by the session
        self.strategy = None    # str | None, set by the session

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    def nodes(self) -> list[Node]:
        """Only the element/text node items."""
        return [i for i in self.items if isinstance(i, Node)]

    def serialize(self) -> str:
        """Compact serialization of all items, concatenated."""
        parts: list[str] = []
        previous_was_atom = False
        for item in self.items:
            if isinstance(item, Node):
                parts.append(serialize(item))
                previous_was_atom = False
            elif isinstance(item, AttrNode):
                parts.append(item.value)
                previous_was_atom = False
            else:
                if previous_was_atom:
                    parts.append(" ")
                parts.append(atom_text(item))
                previous_was_atom = True
        return "".join(parts)

    def pretty(self) -> str:
        """Indented serialization (display form)."""
        parts: list[str] = []
        for item in self.items:
            if isinstance(item, Node):
                parts.append(pretty(item))
            elif isinstance(item, AttrNode):
                parts.append(item.value + "\n")
            else:
                parts.append(atom_text(item) + "\n")
        return "".join(parts)

    def string_values(self) -> list[str]:
        """String value of each item (handy in tests)."""
        return [atom_text(i) if not isinstance(i, (Node, AttrNode))
                else i.string_value() for i in self.items]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<QueryResult {len(self.items)} items>"
