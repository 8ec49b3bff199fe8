"""NoK pattern-tree matching (paper Algorithm 2 / Section 4.1).

The matcher evaluates one NoK pattern tree — only local axes — against
a document with a single sequential scan, producing a sequence of
NestedLists ordered by the document order of their root matches.  That
emission order is what Theorem 1's order-preservation proof rests on,
and the pipelined join relies on it.

Differences from the pseudo-code, for exactness:

* Algorithm 2 interleaves result construction with frontier deletion;
  we construct the child groups with a recursive depth-first match that
  implements the declared Definition-1 semantics directly (mandatory
  children need at least one match, optional children may be empty, all
  matches of a child are grouped).  The produced physical structure is
  the Figure-6 layout (see :mod:`repro.algebra.nested_list`).
* ``following-sibling`` edges are handled as the frontier mechanism
  does: a sibling-constrained child only becomes eligible after its
  predecessor has matched among the same parent's children.
* Value constraints run as closures compiled once per vertex
  (:mod:`repro.xpath.compile`, which delegates what it does not
  specialise to the XPath interpreter) with the candidate element as
  context node, so constraints like ``[. = "Smith"]``,
  ``[@year = "2000"]`` or ``[not(author)]`` behave identically in every
  engine in this repository.
* The per-candidate work is a closure built once per NoK
  (:func:`matcher_for`): per vertex the compiled predicates, a ``tag ->
  applicable pattern edges`` table and the mandatory-edge mask are
  resolved when the plan first executes, not per scanned node.
* A predicate that mentions a variable is *late-bound* (a pushed
  where-conjunct ``. op $p``): it reads the request's bindings, an
  argument of every matcher call and never state of the shared plan.
  Without bindings — no request: a tool scanning a decomposition — a
  matcher skips those tests and yields the structural superset.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from typing import cast

from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.xmlkit.storage import ScanCounters, SequentialScan, postings_scan
from repro.xmlkit.tree import DOCUMENT, ELEMENT, Document, Node
from repro.xpath.ast import mentions_variable
from repro.xpath.compile import Bindings, ScanBindings, Test, compile_test
from repro.algebra.nested_list import Match, NLEntry, no_groups

__all__ = ["Matcher", "NoKMatcher", "compile_matcher", "matcher_for",
           "value_constraints_hold"]

#: A compiled pattern vertex: ``fn(node, counters, variables)`` is the
#: match of the vertex's NoK subtree at ``node`` (whose tag the caller
#: has tested) under the request's bindings — an entry for a grouped
#: vertex, ``node`` itself for any other — or ``None``.
Matcher = Callable[[Node, ScanCounters, "Bindings | None"], "Match | None"]

#: What a predicate that mentions no variable is given (never written).
_NO_VARIABLES: Bindings = {}


class NoKMatcher:
    """Evaluates one NoK pattern tree over one document.

    Parameters
    ----------
    nok:
        The NoK pattern tree (from :func:`repro.pattern.decompose.decompose`).
    doc:
        The input document.
    counters:
        Shared work counters; the driving sequential scan reports its
        I/O here and every predicate evaluation counts a comparison.
    start_nid, stop_nid:
        Optional scan range (pre-order ranks).  The bounded nested-loop
        join re-runs matchers over subtree ranges through these.
    variables:
        The request's bindings, for late-bound vertex tests (``{}``
        outside a request: a plan with such a test then fails loudly).
    """

    def __init__(self, nok: NoKTree, doc: Document,
                 counters: ScanCounters | None = None,
                 start_nid: int = 0, stop_nid: int | None = None,
                 *, variables: Bindings) -> None:
        self.nok = nok
        self.doc = doc
        self.counters = counters if counters is not None else ScanCounters()
        self.start_nid = start_nid
        self.stop_nid = stop_nid
        self.variables = ScanBindings(variables)

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def matches(self) -> list[Match]:
        """All matches, in document order of their root nodes."""
        return list(self.iter_matches())

    def iter_matches(self) -> Iterator[Match]:
        """Pipelined form: the GetNext interface of Section 4.2 is
        ``next()`` on this generator."""
        root = self.nok.root
        match = matcher_for(self.nok)
        if root.name == "#root":
            # Pattern-tree roots match the document node itself.
            entry = match(self.doc.document_node, self.counters,
                          self.variables)
            if entry is not None:
                yield entry
            return
        for node in (SequentialScan(self.doc, self.counters,
                                    self.start_nid, self.stop_nid)
                     if root.name == "*" else
                     postings_scan(self.doc, self.counters, (root.name,),
                                   self.start_nid, self.stop_nid)):
            entry = match(node, self.counters, self.variables)
            if entry is not None:
                yield entry


def value_constraints_hold(vertex: BlossomVertex, node: Node,
                           counters: ScanCounters) -> bool:
    """Whether ``node`` satisfies every value predicate of ``vertex``.

    TwigStack's stream filter calls it per stream node; like the NoK
    matchers it counts one comparison per predicate evaluated and stops
    at the first failure.  The compiled predicates are kept on the
    vertex — TwigStack knows no NoK, and runs bare paths only: no where
    clause, so no late-bound test.
    """
    if vertex.tests is None:  # a race compiles an equal tuple twice
        vertex.tests = _compile_tests(vertex)[0]
    if node.kind == DOCUMENT:
        return True
    for test in vertex.tests:
        counters.comparisons += 1
        if not test(node, _NO_VARIABLES, None):
            return False
    return True


def _compile_tests(vertex: BlossomVertex
                   ) -> tuple[tuple[Test, ...], tuple[Test, ...]]:
    """The vertex's predicates compiled: (static, late-bound)."""
    static: list[Test] = []
    late: list[Test] = []
    for predicate in vertex.value_predicates:
        (late if mentions_variable(predicate) else static).append(
            compile_test(predicate))
    return tuple(static), tuple(late)


def matcher_for(nok: NoKTree) -> Matcher:
    """The NoK's compiled root matcher, built on first use and kept on
    the NoK — fetch it once per scan, call it per candidate."""
    if nok.matcher is None:  # a race compiles an equal matcher twice
        nok.matcher = compile_matcher(nok.root)
    return cast(Matcher, nok.matcher)


def compile_matcher(vertex: BlossomVertex) -> Matcher:
    """Compile ``vertex`` and the NoK subtree below it (uncut edges).

    The closure alone holds what is compiled here (the tests too), so
    all of it is freed with the closure's owner.

    The representation is the vertex's
    (:attr:`~repro.pattern.blossom.BlossomVertex.grouped`): a vertex
    without a slot to fill matches as the node itself, so nothing is
    built for it.  A grouped vertex's entry is built only for a
    candidate that passed its tests and its mandatory and sibling
    checks.  It holds the vertex's one shared groups tuple of empty
    slots until a returning local child appends its first match; only
    then does it get its own groups list, and that slot its own list.
    A cut ``//`` child's slot and an existential child's slot stay
    ``()``.
    """
    tests, late = _compile_tests(vertex)
    grouped = vertex.grouped
    empty = no_groups(len(vertex.child_edges))
    local = [(index, edge) for index, edge in enumerate(vertex.child_edges)
             if not edge.cut]
    if not local and not tests and not late:
        return _the_node

    # The matched mask drives the mandatory check and the first half of
    # the following-sibling rule (a child with an ``after_vid``
    # constraint joins the frontier only once its predecessor matched).
    bit_of = {edge.child.vid: 1 << position
              for position, (_, edge) in enumerate(local)}
    never = 1 << len(local)  # a predecessor that is no local sibling
    mandatory = 0
    # Per edge: tag, (group index, child matcher, its bit, the bit that
    # must be set first, returning).  An existential child without
    # tests or local children has no matcher (``None``): the tag test
    # that selected the edge is its whole match, so the edge's one
    # comparison is charged, its bit set and nothing is built.
    edges: list[tuple[str, tuple[int, Matcher | None, int, int, bool]]] = []
    for index, edge in local:
        child = edge.child
        if edge.mode == MODE_MANDATORY:
            mandatory |= bit_of[child.vid]
        leaf = not child.returning and not child.value_predicates \
            and all(sub.cut for sub in child.child_edges)
        edges.append((child.name, (
            index, None if leaf else compile_matcher(child),
            bit_of[child.vid],
            0 if child.after_vid is None
            else bit_of.get(child.after_vid, never), child.returning)))
    # One lookup per child element instead of a loop over the pattern
    # edges: per tag, the edges that apply to it, in edge order (a
    # wildcard edge applies to every tag, in its place among the named
    # ones; a ``#root`` vertex matches no element).
    anywhere = tuple(e for name, e in edges if name == "*")
    table = {tag: tuple(e for name, e in edges if name in (tag, "*"))
             for tag, _ in edges if tag not in ("*", "#root")}

    def match(node: Node, counters: ScanCounters,
              variables: Bindings | None) -> Match | None:
        if node.kind != DOCUMENT:
            for test in tests:
                counters.comparisons += 1
                if not test(node, _NO_VARIABLES, None):
                    return None
            if late and variables is not None:
                for test in late:
                    counters.comparisons += 1
                    if not test(node, variables, None):
                        return None
        groups: list[Sequence[Match]] | None = None
        matched = 0
        for child_node in node.children:
            applicable = table.get(child_node.tag, anywhere)
            if not applicable or child_node.kind != ELEMENT:
                continue
            for index, child_match, bit, _after, returning in applicable:
                counters.comparisons += 1
                if child_match is None:
                    matched |= bit
                    continue
                sub = child_match(child_node, counters, variables)
                if sub is None:
                    continue
                matched |= bit
                # Non-kept (purely existential) children record only the
                # fact of the match; their subtrees are discarded.
                if returning:
                    if groups is None:
                        groups = [*empty]
                    slot = groups[index]
                    if isinstance(slot, list):
                        slot.append(sub)
                    else:
                        groups[index] = [sub]
        if matched & mandatory != mandatory:
            return None
        if groups is not None:
            return NLEntry(vertex, node, groups)
        return NLEntry(vertex, node, empty) if grouped else node

    if not any(after for _, (_, _, _, after, _) in edges):
        return match

    # Sibling order.  Definition 1 needs positions, not bits: a successor
    # match counts only after a predecessor match, a predecessor match
    # only before the last successor match that itself survived.  Per
    # mandatory successor edge, (its predecessor's bit, its own bit);
    # a successor's edge is built after its predecessor's, so in reverse
    # edge order successors of successors come first and chains compose.
    ordered = tuple((after, bit) for _, (_, _, bit, after, _)
                    in reversed(edges)
                    if after and after != never and mandatory & bit)
    group_of = {bit: index for _, (index, _, bit, _, returning) in edges
                if returning}

    def match_in_sibling_order(node: Node, counters: ScanCounters,
                               variables: Bindings | None) -> Match | None:
        if node.kind != DOCUMENT:
            bound = _NO_VARIABLES if variables is None else variables
            for test in tests if variables is None else tests + late:
                counters.comparisons += 1
                if not test(node, bound, None):
                    return None
        groups: list[Sequence[Match]] | None = None
        matched = 0
        #: edge bit -> child positions of its matches, ascending
        positions: dict[int, list[int]] = {}
        for position, child_node in enumerate(node.children):
            applicable = table.get(child_node.tag, anywhere)
            if not applicable or child_node.kind != ELEMENT:
                continue
            # A successor is eligible against the mask as it stood
            # *before* this child: never on the very child that set its
            # predecessor's bit.
            before = matched
            for index, child_match, bit, after, returning in applicable:
                if after and not before & after:
                    continue
                counters.comparisons += 1
                if child_match is not None:
                    sub = child_match(child_node, counters, variables)
                    if sub is None:
                        continue
                    if returning:
                        if groups is None:
                            groups = [*empty]
                        slot = groups[index]
                        if isinstance(slot, list):
                            slot.append(sub)
                        else:
                            groups[index] = [sub]
                matched |= bit
                positions.setdefault(bit, []).append(position)
        if matched & mandatory != mandatory:
            return None
        for predecessor, successor in ordered:
            # The successor matched (it is mandatory) and its first
            # match had a predecessor match before it: the cut keeps
            # at least that one.
            kept = positions[predecessor]
            keep = bisect_left(kept, positions[successor][-1])
            del kept[keep:]
            if groups is not None and predecessor in group_of:
                slot = groups[group_of[predecessor]]
                if isinstance(slot, list):  # never a shared ``()``
                    del slot[keep:]
        if groups is not None:
            return NLEntry(vertex, node, groups)
        return NLEntry(vertex, node, empty) if grouped else node
    return match_in_sibling_order


def _the_node(node: Node, counters: ScanCounters,
              variables: Bindings | None) -> Node:
    """The matcher of a vertex with no test and no local child: the
    tag test that selected ``node`` is its whole match."""
    return node
