"""PathStack: holistic join for *chain* queries (Bruno et al., reference [7]).

TwigStack's simpler sibling: when the query is a pure root-to-leaf
chain (no branching), PathStack merges the per-tag streams with one
chained stack per query node and emits every chain match in a single
pass over the streams — no path-solution merging phase at all.

The engine's cost model does not need PathStack (TwigStack subsumes
it), but the paper's reference [7] evaluates both, and the chain-query
half of the workload (the "c" categories of Table 2) is exactly its
territory; the comparison bench shows PathStack doing the same work
with less machinery on chains.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.pattern.blossom import BlossomTree, BlossomVertex
from repro.physical.nok import value_constraints_hold
from repro.physical.structural import count_operator
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document, Node
from repro.physical.twigstack import twig_supported

__all__ = ["PathStackOperator", "chain_supported"]

_INF = float("inf")


def chain_supported(tree: BlossomTree) -> bool:
    """True iff the BlossomTree is a single non-branching, all-``//`` chain.

    Child-axis steps are excluded: classic PathStack assumes
    ancestor-descendant edges, and chains with ``/`` steps run through
    TwigStack's generic machinery instead.
    """
    if not twig_supported(tree):
        return False
    vertex = tree.roots[0]
    while vertex.child_edges:
        if len(vertex.child_edges) > 1:
            return False
        if vertex.child_edges[0].axis != "descendant":
            return False
        vertex = vertex.child_edges[0].child
    return True


class PathStackOperator:
    """Single-pass chain matching over tag streams.

    Stacks are chained: each pushed element records the current top of
    its parent stack, so a leaf element's matches are exactly the
    chains through the recorded watermarks.  For node extraction we
    track, per stack entry, whether a full chain through it has been
    witnessed.
    """

    def __init__(self, tree: BlossomTree, doc: Document,
                 counters: ScanCounters | None = None) -> None:
        if not chain_supported(tree):
            raise ExecutionError("PathStack requires a single //-chain query")
        self.tree = tree
        self.doc = doc
        self.index = doc.derived.index
        self.counters = counters if counters is not None else ScanCounters()

        # The chain of query vertices, root-of-chain first.
        self.chain: list[BlossomVertex] = []
        self.axes: list[str] = []
        vertex = tree.roots[0].child_edges[0].child
        self.axes.append(tree.roots[0].child_edges[0].axis)
        while True:
            self.chain.append(vertex)
            if not vertex.child_edges:
                break
            self.axes.append(vertex.child_edges[0].axis)
            vertex = vertex.child_edges[0].child

        self.streams = [self._stream_for(v) for v in self.chain]

    def _stream_for(self, vertex: BlossomVertex) -> list[Node]:
        nodes = (list(self.doc.elements()) if vertex.name == "*"
                 else self.index.nodes(vertex.name))
        self.counters.nodes_scanned += len(nodes)
        if not vertex.value_predicates:
            return nodes
        return [node for node in nodes
                if value_constraints_hold(vertex, node, self.counters)]

    # ------------------------------------------------------------------
    # The merge.
    # ------------------------------------------------------------------

    def matching_nodes(self, output: BlossomVertex) -> list[Node]:
        """Distinct nodes of ``output`` on at least one full chain match."""
        try:
            level = self.chain.index(output)
        except ValueError:
            raise ExecutionError("output vertex is not on the chain") from None

        k = len(self.chain)
        positions = [0] * k
        # stacks[i]: list of [node, parent_watermark, witnessed]
        stacks: list[list[list]] = [[] for _ in range(k)]
        results: set[int] = set()

        def next_start(i: int) -> float:
            if positions[i] >= len(self.streams[i]):
                return _INF
            return self.streams[i][positions[i]].start

        def clean(i: int, start: int) -> None:
            while stacks[i] and stacks[i][-1][0].end < start:
                stacks[i].pop()

        def mark_witnessed(leaf_index: int, entry: list) -> None:
            """Propagate 'on a full chain' up through the watermarks."""
            index = leaf_index
            frontier = [entry]
            while frontier and index >= 0:
                next_frontier = []
                for item in frontier:
                    if item[2]:
                        continue
                    item[2] = True
                    if index > 0:
                        next_frontier.extend(stacks[index - 1][:item[1]])
                frontier = next_frontier
                index -= 1

        token = self.counters.cancellation
        while True:
            if token is not None:
                token.checkpoint()
            candidates = [i for i in range(k) if next_start(i) < _INF]
            if not candidates:
                break
            i = min(candidates, key=next_start)
            node = self.streams[i][positions[i]]
            positions[i] += 1
            self.counters.comparisons += 1
            for j in range(k):
                clean(j, node.start)
            if i == 0:
                entry = [node, 0, False]
                stacks[0].append(entry)
                if k == 1:
                    mark_witnessed(0, entry)
            elif stacks[i - 1]:
                # Ancestors must properly contain the node: when the
                # same element sits on the previous level's stack top
                # (same-tag chains like //a//a), it is not its own
                # ancestor and must stay below the watermark.
                watermark = len(stacks[i - 1])
                if stacks[i - 1][-1][0] is node:
                    watermark -= 1
                if watermark > 0:
                    entry = [node, watermark, False]
                    stacks[i].append(entry)
                    self.counters.note_buffer(sum(len(s) for s in stacks))
                    if i == k - 1:
                        mark_witnessed(i, entry)
            # Collect witnessed output nodes eagerly (they may be popped).
            for entry in stacks[level]:
                if entry[2]:
                    results.add(entry[0].nid)

        # Final sweep for entries still stacked at the end.
        for entry in stacks[level]:
            if entry[2]:
                results.add(entry[0].nid)
        count_operator("pathstack", len(results))
        return [self.doc.nodes[nid] for nid in sorted(results)]
