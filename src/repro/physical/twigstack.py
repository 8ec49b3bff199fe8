"""TwigStack: holistic twig join (Bruno, Koudas, Srivastava — reference [7]).

The join-based comparator of the paper's experiments (the "TS" columns
of Table 3).  TwigStack consumes one document-ordered, region-labeled
stream per query vertex — supplied by the tag-name index — and uses a
chain of stacks to encode ancestor relationships compactly.  It is I/O
and memory optimal when every twig edge is ``//``; with ``/`` edges it
may emit path solutions that do not extend to full twig matches, which
a post-phase must filter.

Implementation notes
--------------------
* ``getNext`` follows the published algorithm, with explicit handling
  of exhausted streams: a child whose whole subtree is exhausted is
  skipped, so sibling branches keep draining (solutions pairing new
  elements with already-stacked ancestors are still found).
* Instead of merging root-to-leaf path solutions combinatorially, we
  collect the *parent-child node pairs* witnessed by path solutions and
  run a bottom-up validity pass followed by a top-down reachability
  pass over those pair sets.  For tree-shaped queries this yields
  exactly the nodes participating in at least one full twig match, in
  time linear in the number of witnessed pairs — and it is immune to
  the path-merge blowup on low-selectivity queries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.pattern.blossom import BlossomTree, BlossomVertex
from repro.physical.nok import filtered
from repro.physical.structural import count_operator
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document, Node

__all__ = ["TwigStackOperator", "twig_supported"]

_INF = float("inf")


def twig_supported(tree: BlossomTree) -> bool:
    """Can this BlossomTree run as a single holistic twig?

    Requires one pattern root with exactly one child edge (the twig
    root; a step-less path such as ``/`` has none), no crossing edges,
    and only child / descendant tree edges — i.e. a classic twig query.
    (Mandatory-mode information is ignored: TwigStack treats every
    branch as required, which matches bare-path queries where all edges
    are mandatory.)
    """
    if len(tree.roots) != 1 or tree.crossing_edges or tree.where \
            or len(tree.roots[0].child_edges) != 1:
        return False
    for edge in tree.tree_edges:
        if edge.axis not in ("child", "descendant"):
            return False
        if edge.mode != "f":
            return False
        if edge.child.after_vid is not None:
            return False
    return True


@dataclass
class _QNode:
    """One twig query node with its stream and stack.  Only ``children``
    is a strong link: :attr:`parent` is weak, so the query tree is
    acyclic and is freed with its operator by reference counting."""

    vertex: BlossomVertex
    _up: weakref.ref[_QNode] | None
    axis: str                    # edge axis from parent ("descendant" at root)
    children: list[_QNode] = field(default_factory=list)
    stream: list[Node] = field(default_factory=list)
    pos: int = 0
    # stack holds (node, parent_stack_size_at_push)
    stack: list[tuple[Node, int]] = field(default_factory=list)

    @property
    def parent(self) -> _QNode | None:
        return None if self._up is None else self._up()

    # -- stream cursor --------------------------------------------------

    def eof(self) -> bool:
        return self.pos >= len(self.stream)

    def next_start(self) -> float:
        return self.stream[self.pos].start if not self.eof() else _INF

    def next_end(self) -> float:
        return self.stream[self.pos].end if not self.eof() else _INF

    def head(self) -> Node:
        return self.stream[self.pos]

    def advance(self) -> None:
        self.pos += 1

    def exhausted_subtree(self) -> bool:
        return self.eof() and all(c.exhausted_subtree() for c in self.children)

    def is_leaf(self) -> bool:
        return not self.children


class TwigStackOperator:
    """Evaluates one twig pattern holistically over a tag index.

    Parameters
    ----------
    tree:
        A BlossomTree accepted by :func:`twig_supported`.
    doc:
        The document; streams come from its one tag-name index
        (``doc.derived.index``, built on demand).
    counters:
        Work counters; stream construction charges ``nodes_scanned``
        (index I/O) and predicate checks charge ``comparisons``.
    """

    def __init__(self, tree: BlossomTree, doc: Document,
                 counters: ScanCounters | None = None) -> None:
        if not twig_supported(tree):
            raise ExecutionError("BlossomTree is not a single twig; "
                                 "TwigStack is not applicable")
        self.tree = tree
        self.doc = doc
        self.index = doc.derived.index
        self.counters = counters if counters is not None else ScanCounters()
        self.root_q = self._build_query_tree()
        #: (parent_vid, child_vid) -> set of (parent_nid, child_nid) pairs
        self._pairs: dict[tuple[int, int], set[tuple[int, int]]] = {}
        #: vid -> nids seen in any path solution
        self._seen: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------

    def _build_query_tree(self) -> _QNode:
        root_vertex = self.tree.roots[0]
        # The #root vertex maps to the document node; its single child
        # (twig_supported) becomes the twig root.  A child-axis edge from
        # #root means the twig root must be the document element
        # (level == 1).
        top_edge = root_vertex.child_edges[0]
        root_q = self._make_qnode(top_edge.child, None, top_edge.axis)
        if top_edge.axis == "child":
            root_q.stream = [n for n in root_q.stream if n.level == 1]
        return root_q

    def _make_qnode(self, vertex: BlossomVertex, parent: _QNode | None,
                    axis: str) -> _QNode:
        qnode = _QNode(vertex, None if parent is None else weakref.ref(parent),
                       axis)
        qnode.stream = self._stream_for(vertex)
        for edge in vertex.child_edges:
            qnode.children.append(self._make_qnode(edge.child, qnode, edge.axis))
        return qnode

    def _stream_for(self, vertex: BlossomVertex) -> list[Node]:
        if vertex.name == "*":
            nodes = [n for n in self.doc.elements()]
        else:
            nodes = self.index.nodes(vertex.name)
        self.counters.nodes_scanned += len(nodes)
        if not vertex.value_predicates:
            return nodes
        return filtered(vertex, nodes, self.counters)

    # ------------------------------------------------------------------
    # The TwigStack main loop.
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Consume all streams, recording witnessed parent-child pairs."""
        root = self.root_q
        token = self.counters.cancellation
        while not root.exhausted_subtree():
            if token is not None:
                token.checkpoint()
            q = self._get_next(root)
            if q.eof():
                break  # no branch can make further progress
            head = q.head()
            parent = q.parent
            if parent is not None:
                self._clean_stack(parent, head)
            if parent is None or parent.stack:
                self._clean_stack(q, head)
                parent_size = len(parent.stack) if parent is not None else 0
                q.stack.append((head, parent_size))
                self.counters.note_buffer(sum(len(x.stack) for x in self._all_qnodes()))
                if q.is_leaf():
                    self._emit_paths(q)
                    q.stack.pop()
            q.advance()

    def _all_qnodes(self) -> list[_QNode]:
        out: list[_QNode] = []
        stack = [self.root_q]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out

    def _get_next(self, q: _QNode) -> _QNode:
        if q.is_leaf():
            return q
        active = [c for c in q.children if not c.exhausted_subtree()]
        if not active:
            return q
        returned: list[_QNode] = []
        for child in active:
            ni = self._get_next(child)
            if ni is not child:
                return ni
            returned.append(ni)
        qmin = min(returned, key=lambda c: c.next_start())
        qmax = max(returned, key=lambda c: c.next_start())
        while q.next_end() < qmax.next_start():
            self.counters.comparisons += 1
            q.advance()
        if q.next_start() < qmin.next_start():
            return q
        return qmin

    def _clean_stack(self, q: _QNode, head: Node) -> None:
        while q.stack and q.stack[-1][0].end < head.start:
            q.stack.pop()

    # ------------------------------------------------------------------
    # Path-solution recording.
    # ------------------------------------------------------------------

    def _emit_paths(self, leaf: _QNode) -> None:
        """Record the parent-child pairs of every root-to-leaf solution
        ending at the leaf's just-pushed element.

        Child-axis edges are enforced here (parent identity); descendant
        edges accept any stacked ancestor at or below the recorded
        parent-stack watermark.
        """
        node, parent_size = leaf.stack[-1]
        self._record_chain(leaf, node, parent_size)

    def _record_chain(self, q: _QNode, node: Node, parent_watermark: int) -> None:
        self._seen.setdefault(q.vertex.vid, set()).add(node.nid)
        parent_q = q.parent
        if parent_q is None:
            return
        key = (parent_q.vertex.vid, q.vertex.vid)
        pairs = self._pairs.setdefault(key, set())
        for index in range(parent_watermark):
            ancestor, grand_watermark = parent_q.stack[index]
            self.counters.comparisons += 1
            if q.axis == "child" and ancestor is not node.parent:
                continue
            if not (ancestor.start < node.start and node.end < ancestor.end):
                continue
            if (ancestor.nid, node.nid) not in pairs:
                pairs.add((ancestor.nid, node.nid))
                self._record_chain(parent_q, ancestor, grand_watermark)

    # ------------------------------------------------------------------
    # Result extraction.
    # ------------------------------------------------------------------

    def matching_nodes(self, output: BlossomVertex) -> list[Node]:
        """Distinct nodes of ``output`` participating in a full twig match.

        Bottom-up validity (a node needs a valid witness in every child
        branch) then top-down reachability (a node needs a valid parent
        chain to the twig root); tree-shaped queries make the two passes
        exact.
        """
        self.run()
        valid = self._bottom_up_valid()
        reachable = self._top_down_reachable(valid)
        nids = reachable.get(output.vid, set())
        nodes = [self.doc.nodes[nid] for nid in sorted(nids)]
        count_operator("twigstack", len(nodes))
        return nodes

    def _bottom_up_valid(self) -> dict[int, set[int]]:
        valid: dict[int, set[int]] = {}
        # Children follow their parent in ``_all_qnodes()`` order, so the
        # reverse visits every child before its parent.
        for q in reversed(self._all_qnodes()):
            nids = set(self._seen.get(q.vertex.vid, set()))
            for child in q.children:
                key = (q.vertex.vid, child.vertex.vid)
                child_valid = valid.get(child.vertex.vid, set())
                witnesses = {p for (p, c) in self._pairs.get(key, set())
                             if c in child_valid}
                nids &= witnesses
            valid[q.vertex.vid] = nids
        return valid

    def _top_down_reachable(self, valid: dict[int, set[int]]) -> dict[int, set[int]]:
        reachable: dict[int, set[int]] = {
            self.root_q.vertex.vid: set(valid.get(self.root_q.vertex.vid, set()))}
        for q in self._all_qnodes():
            parents = reachable.get(q.vertex.vid, set())
            for child in q.children:
                key = (q.vertex.vid, child.vertex.vid)
                child_valid = valid.get(child.vertex.vid, set())
                reachable[child.vertex.vid] = {
                    c for (p, c) in self._pairs.get(key, set())
                    if p in parents and c in child_valid}
        return reachable
