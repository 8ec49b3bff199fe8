"""Streaming NoK pattern matching over SAX events — no tree required.

Section 5.2 remarks that "pipelined algorithm is preferred in the
stream context and in the case where no tag-name indexes are
available"; Section 2.1 notes navigational matchers consume input
"either through SAX event callbacks or ... the underlying storage
system".  This module supplies the SAX form: a NoK pattern tree (local
axes only — the property that makes single-pass matching possible) is
evaluated over the event stream of :mod:`repro.xmlkit.sax`, in one
pass, with memory bounded by document depth × pattern size.

Because there is no tree, results cannot be node references; the
matcher reports match *counts* and, optionally, the string values of
the matched roots — the typical shapes of streaming consumers.

Streamability restrictions (checked up front, raising
:class:`~repro.errors.CompileError`):

* only uncut (local) edges — run :func:`~repro.pattern.decompose.decompose`
  first and stream one NoK at a time;
* value predicates limited to attribute/text equality comparisons,
  which are decidable at the element's start/end events.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.xmlkit.sax import ContentHandler, parse_string
from repro.xpath.ast import Comparison, Literal, LocationPath, NumberLiteral, RootContext, TextTest
from repro.xpath.compile import literal_test

__all__ = ["StreamingNoKMatcher", "stream_count"]


#: ``observed string = literal``, from the expression compiler.
_Accepts = Callable[[str], bool]


def _compile_predicate(vertex: BlossomVertex
                       ) -> tuple[list[tuple[str, _Accepts]], list[_Accepts]]:
    """Translate value predicates to stream-decidable tests: those on a
    named attribute (decidable at the start event) and those on the
    element's accumulated text (at the end event).

    This decides *when* a test is decidable and which shapes stream;
    *how* an observed string compares to the literal is the expression
    compiler's ``observed-string op literal`` primitive, the same one
    the tree matchers run.
    """
    on_attrs: list[tuple[str, _Accepts]] = []
    on_text: list[_Accepts] = []
    for predicate in vertex.value_predicates:
        if not isinstance(predicate, Comparison) or predicate.op != "=":
            raise CompileError(f"predicate {predicate} is not streamable")
        path, literal = predicate.left, predicate.right
        if isinstance(path, (Literal, NumberLiteral)):
            path, literal = literal, path
        if not isinstance(path, LocationPath) \
                or not isinstance(literal, (Literal, NumberLiteral)):
            raise CompileError(f"predicate {predicate} is not streamable")
        if not isinstance(path.root, RootContext) or path.root.absolute:
            raise CompileError(f"predicate {predicate} is not streamable")
        accepts = literal_test("=", literal.value)
        if len(path.steps) == 1 and path.steps[0].axis == "attribute":
            on_attrs.append((path.steps[0].test.name, accepts))
        elif not path.steps or (
                len(path.steps) == 1
                and (isinstance(path.steps[0].test, TextTest)
                     or path.steps[0].axis == "self")):
            on_text.append(accepts)
        else:
            raise CompileError(f"predicate {predicate} is not streamable")
    return on_attrs, on_text


@dataclass
class _OpenMatch:
    """An in-flight match of one pattern vertex at the current depth."""

    vertex: BlossomVertex
    parent: _OpenMatch | None
    text_parts: list[str] = field(default_factory=list)
    matched_children: set[int] = field(default_factory=set)
    text_tests: list[_Accepts] = field(default_factory=list)

    def satisfied(self) -> bool:
        for edge in self.vertex.child_edges:
            if edge.cut:
                continue
            if edge.mode == MODE_MANDATORY and \
                    edge.child.vid not in self.matched_children:
                return False
        text = "".join(self.text_parts)
        return all(accepts(text) for accepts in self.text_tests)


class StreamingNoKMatcher(ContentHandler):
    """SAX handler matching one NoK pattern tree in a single pass.

    Attributes after the run: ``count`` (completed root matches) and
    ``root_values`` (string values of matched roots, if
    ``collect_values`` was set — note values require buffering the
    candidate subtrees' text, the memory/latency trade streaming
    engines make explicit).
    """

    def __init__(self, nok: NoKTree, collect_values: bool = False) -> None:
        if nok.root.name == "#root":
            raise CompileError("streaming matches element-rooted NoKs; "
                               "the #root pattern is the trivial document match")
        for vertex in nok.vertices:
            if vertex.after_vid is not None:
                raise CompileError("following-sibling constraints are not "
                                   "supported by the streaming matcher")
        self.nok = nok
        self.collect_values = collect_values
        self.count = 0
        self.root_values: list[str] = []
        self.max_open = 0
        #: vid -> (attribute tests, text tests)
        self._tests = {v.vid: _compile_predicate(v) for v in nok.vertices}
        #: one list of open matches per open element (stack of frames)
        self._frames: list[list[_OpenMatch]] = []
        self._open_total = 0

    # ------------------------------------------------------------------
    # SAX callbacks.
    # ------------------------------------------------------------------

    def start_element(self, tag: str, attrs: dict[str, str]) -> None:
        new_frame: list[_OpenMatch] = []

        def try_open(vertex: BlossomVertex, parent: _OpenMatch | None) -> None:
            if not vertex.matches_tag(tag):
                return
            on_attrs, on_text = self._tests[vertex.vid]
            for name, accepts in on_attrs:
                if name not in attrs or not accepts(attrs[name]):
                    return
            new_frame.append(_OpenMatch(vertex, parent, text_tests=on_text))

        # The NoK root may start matching at any element.
        try_open(self.nok.root, None)
        # Children of matches open in the enclosing frame.
        if self._frames:
            for parent in self._frames[-1]:
                for edge in parent.vertex.child_edges:
                    if not edge.cut:
                        try_open(edge.child, parent)

        self._frames.append(new_frame)
        self._open_total += len(new_frame)
        self.max_open = max(self.max_open,
                            self._open_total + len(self._frames))

    def characters(self, text: str) -> None:
        if not self._frames:
            return
        for match in self._frames[-1]:
            if match.text_tests or self.collect_values:
                match.text_parts.append(text)

    def end_element(self, tag: str) -> None:
        frame = self._frames.pop()
        self._open_total -= len(frame)
        for match in frame:
            if not match.satisfied():
                continue
            if match.parent is None:
                self.count += 1
                if self.collect_values:
                    self.root_values.append("".join(match.text_parts))
            else:
                match.parent.matched_children.add(match.vertex.vid)
                if self.collect_values:
                    match.parent.text_parts.extend(match.text_parts)


def stream_count(xml_text: str, nok: NoKTree) -> int:
    """Count a NoK pattern's matches over raw XML text in one pass."""
    handler = StreamingNoKMatcher(nok)
    parse_string(xml_text, handler)
    return handler.count
