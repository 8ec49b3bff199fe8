"""Result construction: turning bound variables into output XML.

Both the BlossomTree engine and the naive oracle interpreter construct
results with these helpers, so any disagreement between them in tests is
a disagreement about *matching*, never about output formatting.

Construction copies matched nodes into a fresh result document (XQuery
constructor semantics: constructed content is a copy, detached from the
input document).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ExecutionError
from repro.xmlkit.serialize import pretty, serialize
from repro.xmlkit.tree import ELEMENT, TEXT, DocumentBuilder, Node
from repro.xpath.evaluator import AttrNode

__all__ = ["QueryResult", "ResultBuilder", "copy_into", "atom_text"]

Item = Node | AttrNode | str | float | bool


def atom_text(item: Item) -> str:
    """Render a non-node item (or a node's string value) as text."""
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        return str(int(item)) if item.is_integer() else str(item)
    if isinstance(item, str):
        return item
    return item.string_value()


def copy_into(builder: DocumentBuilder, node: Node | AttrNode) -> None:
    """Deep-copy a source node into the document being built."""
    if isinstance(node, AttrNode):
        # Attributes selected as items serialize as their value text.
        builder.text(node.value)
        return
    if node.kind == TEXT:
        builder.text(node.text or "")
        return
    if node.kind == ELEMENT:
        builder.start_element(node.tag, node.attrs or None)  # type: ignore[arg-type]
        for child in node.children:
            copy_into(builder, child)
        builder.end_element()
        return
    # Document node: copy its element children.
    for child in node.children:
        copy_into(builder, child)


class ResultBuilder:
    """Builds one constructed element tree (constructor semantics)."""

    def __init__(self) -> None:
        self._builder = DocumentBuilder()
        self._depth = 0

    def start_element(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self._builder.start_element(tag, attrs)
        self._depth += 1

    def end_element(self) -> None:
        if self._depth == 0:
            raise ExecutionError("unbalanced result construction")
        self._builder.end_element()
        self._depth -= 1

    def text(self, content: str) -> None:
        self._builder.text(content)

    def add_item(self, item: Item) -> None:
        """Add one sequence item inside the current element."""
        if isinstance(item, (Node, AttrNode)):
            copy_into(self._builder, item)
        else:
            self._builder.text(atom_text(item))

    def add_items(self, items: Iterable[Item]) -> None:
        """Add a sequence of items, space-separating adjacent atoms
        (XQuery content-sequence rule)."""
        previous_was_atom = False
        for item in items:
            is_atom = not isinstance(item, (Node, AttrNode))
            if is_atom and previous_was_atom:
                self._builder.text(" ")
            self.add_item(item)
            previous_was_atom = is_atom

    def finish(self) -> Node:
        """Return the constructed root element."""
        if self._depth != 0:
            raise ExecutionError("unbalanced result construction")
        doc = self._builder.finish()
        assert doc.root is not None
        return doc.root


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

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
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
