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
* Value constraints evaluate through the full XPath evaluator with the
  candidate element as context node, so constraints like
  ``[. = "Smith"]``, ``[@year = "2000"]`` or ``[not(author)]`` behave
  identically in every engine in this repository.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.xmlkit.storage import ScanCounters, SequentialScan
from repro.xmlkit.tree import DOCUMENT, ELEMENT, Document, Node
from repro.xpath.evaluator import EvalContext, XPathEvaluator, boolean_value
from repro.algebra.nested_list import NLEntry

__all__ = ["NoKMatcher", "match_subtree", "value_constraints_hold"]


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
    """

    def __init__(self, nok: NoKTree, doc: Document,
                 counters: ScanCounters | None = None,
                 start_nid: int = 0, stop_nid: int | None = None) -> None:
        self.nok = nok
        self.doc = doc
        self.counters = counters if counters is not None else ScanCounters()
        self.start_nid = start_nid
        self.stop_nid = stop_nid
        self._evaluator = XPathEvaluator()

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def matches(self) -> list[NLEntry]:
        """All matches, in document order of their root nodes."""
        return list(self.iter_matches())

    def iter_matches(self) -> Iterator[NLEntry]:
        """Pipelined form: the GetNext interface of Section 4.2 is
        ``next()`` on this generator."""
        root = self.nok.root
        if root.name == "#root":
            # Pattern-tree roots match the document node itself.
            entry = match_subtree(root, self.doc.document_node,
                                  self.counters, self._evaluator)
            if entry is not None:
                yield entry
            return
        scan = SequentialScan(self.doc, self.counters,
                              self.start_nid, self.stop_nid)
        for node in scan:
            if not root.matches_tag(node.tag):
                continue
            entry = match_subtree(root, node, self.counters, self._evaluator)
            if entry is not None:
                yield entry


def match_subtree(vertex: BlossomVertex, node: Node,
                  counters: ScanCounters,
                  evaluator: XPathEvaluator | None = None) -> NLEntry | None:
    """Match a NoK pattern subtree rooted at ``vertex`` against ``node``.

    The caller must have verified the tag-name test (scan-level
    filtering); this function checks value constraints and children.
    Returns the NestedList entry, or ``None`` when a mandatory child has
    no match or a value constraint fails.
    """
    if evaluator is None:
        evaluator = XPathEvaluator()

    if not value_constraints_hold(vertex, node, counters, evaluator):
        return None

    entry = NLEntry(vertex, node, len(vertex.child_edges))
    local = [(index, edge) for index, edge in enumerate(vertex.child_edges)
             if not edge.cut]
    if not local:
        return entry

    # matched_vids drives both the mandatory check and the
    # following-sibling eligibility rule (a child with an ``after_vid``
    # constraint joins the frontier only once its predecessor matched).
    matched_vids: set[int] = set()
    for child_node in node.children:
        if child_node.kind != ELEMENT:
            continue
        for index, edge in local:
            child_vertex = edge.child
            after = child_vertex.after_vid
            if after is not None and after not in matched_vids:
                continue
            if not child_vertex.matches_tag(child_node.tag):
                continue
            counters.comparisons += 1
            sub = match_subtree(child_vertex, child_node, counters, evaluator)
            if sub is None:
                continue
            matched_vids.add(child_vertex.vid)
            if child_vertex.returning:
                entry.groups[index].append(sub)
            # Non-kept (purely existential) children record only the
            # fact of the match; their subtrees are discarded.

    for index, edge in local:
        if edge.mode == MODE_MANDATORY and edge.child.vid not in matched_vids:
            return None
    return entry


def value_constraints_hold(vertex: BlossomVertex, node: Node,
                           counters: ScanCounters,
                           evaluator: XPathEvaluator) -> bool:
    """Whether ``node`` satisfies every value predicate of ``vertex``.

    The one vertex-predicate check: the NoK matcher, TwigStack and
    PathStack stream filters all call it, so every engine counts one
    comparison per predicate evaluated and stops at the first failure.
    """
    if not vertex.value_predicates:
        return True
    if node.kind == DOCUMENT:
        return True
    context = EvalContext(node)
    for predicate in vertex.value_predicates:
        counters.comparisons += 1
        if not boolean_value(evaluator.evaluate(predicate, context)):
            return False
    return True
