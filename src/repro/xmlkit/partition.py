"""Subtree-aligned partitioning for parallel scans.

Theorem 1 of the paper guarantees that NoK pattern matching over a
sequential scan emits matches in document order.  Because the node
arena is stored in pre-order, every subtree occupies one contiguous
``nid`` range — so a document can be cut into contiguous partitions
whose concatenation is exactly the serial scan order.  Matching each
partition independently and concatenating the per-NoK match lists in
partition order therefore reproduces the serial result bit for bit,
with no re-sort (see DESIGN.md, "Subtree partitioning").

The partitioner aligns cuts to subtree boundaries (runs of whole
top-level subtrees): a partition never starts in the middle of a
top-level subtree unless that subtree was explicitly *split*.  Splitting is the skew
escape hatch — a document whose root has a single giant child (one
top-level subtree holding nearly every node) would otherwise collapse
to one partition; an oversized subtree is opened up and its child runs
are packed instead, recursively.

Match correctness never depends on the cut positions: the NoK matcher
navigates a candidate's subtree through child pointers, not through the
scan, so a candidate near a partition boundary still sees its whole
subtree.  Partition boundaries only decide which scan delivers a
candidate — and every ``nid`` is covered by exactly one partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import REGISTRY
from repro.xmlkit.tree import Document, Node

__all__ = ["Partition", "partition_document", "DEFAULT_MIN_PARTITION_NODES"]

_SPLITS = REGISTRY.counter(
    "repro_partition_splits_total",
    "Oversized subtrees split into child runs by the partitioner")

#: Below this many arena nodes per partition the per-task overhead
#: (executor hand-off, private counters, result merge) dominates any
#: benefit, so the partitioner refuses to cut finer by default.
DEFAULT_MIN_PARTITION_NODES = 256


@dataclass(frozen=True)
class Partition:
    """One contiguous ``nid`` range of the document arena.

    ``stop_nid`` is exclusive, matching
    :class:`~repro.xmlkit.storage.SequentialScan` range semantics.
    Partitions produced by :func:`partition_document` are ordered,
    disjoint, and tile ``[0, len(doc.nodes))`` exactly.
    """

    index: int
    start_nid: int
    stop_nid: int

    @property
    def n_nodes(self) -> int:
        return self.stop_nid - self.start_nid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Partition {self.index} "
                f"[{self.start_nid}, {self.stop_nid}) n={self.n_nodes}>")


def partition_document(doc: Document, parallelism: int,
                       min_nodes: int = DEFAULT_MIN_PARTITION_NODES,
                       ) -> list[Partition]:
    """Cut ``doc`` into at most ``parallelism`` contiguous partitions.

    The target partition size is the arena length over ``parallelism``.
    Runs are subtree-aligned; a run larger than the target is split
    into the subtree root's own slot plus its child runs (recursively),
    which handles skewed documents whose root has one dominant child.

    Always returns at least one partition; with ``parallelism <= 1`` or
    a document smaller than ``min_nodes`` the single partition covers
    the whole arena, making the parallel operator degenerate to the
    serial scan.
    """
    n_nodes = len(doc.nodes)
    if parallelism <= 1 or doc.root is None or n_nodes <= min_nodes:
        return [Partition(0, 0, len(doc.nodes))]

    target = max(min_nodes, -(-n_nodes // parallelism))  # ceil division

    # Collect subtree-aligned runs: (start, stop) ranges, in order,
    # tiling [0, len(doc.nodes)).  The synthetic document node (nid 0)
    # and the document element's own slot form the leading run; every
    # other run is a child subtree — split recursively while oversized.
    runs: list[tuple[int, int]] = [(0, doc.root.nid + 1)]
    _collect_runs(doc.root, target, runs)

    # Greedily pack consecutive runs into partitions of ~target nodes.
    partitions: list[Partition] = []
    start = 0
    size = 0
    for run_start, run_stop in runs:
        size += run_stop - run_start
        if size >= target:
            partitions.append(Partition(len(partitions), start, run_stop))
            start = run_stop
            size = 0
    if size > 0 or not partitions:
        partitions.append(Partition(len(partitions), start, len(doc.nodes)))
    return partitions


def _collect_runs(node: Node, target: int,
                  runs: list[tuple[int, int]]) -> None:
    """Append the child runs of ``node`` (whose own slot is already
    covered by the caller), splitting any child subtree larger than
    ``target`` into its root slot plus grandchild runs."""
    for child in node.children:
        size = child.subtree_size()
        if size > target and child.children:
            _SPLITS.inc()
            runs.append((child.nid, child.nid + 1))
            _collect_runs(child, target, runs)
        else:
            runs.append((child.nid, child.nid + size))
