"""DataGuide-style structural summary: the one pass over a document.

A :class:`StructuralSummary` records every **distinct label path** that
occurs in a document (root-to-element tag sequences), with occurrence
counts, the set of child labels observed below each path, and the set
of attribute names observed on it.  It is the data-shape oracle behind
the ``QL`` query-lint passes (:mod:`repro.analysis.query`): a step
whose label never occurs — or never occurs under the ancestor the
pattern requires — is statically unsatisfiable, so the compiler can cut
the branch (or the whole plan) before a single node is scanned.

:func:`build_summary` is the only O(n) builder of a document version's
structure: one loop over the pre-order ``doc.nodes`` list that keeps the
open label path by ``node.level``.  The same loop fills the exact
document aggregates (:class:`~repro.xmlkit.stats.DocumentStats`: tag
histogram, depths, per-tag subtree sizes, recursion degree), carried as
:attr:`StructuralSummary.stats`.  Only the path table is capped at
:data:`MAX_PATHS`; the aggregates are per node and stay exact.  An
update does not rebuild: :meth:`StructuralSummary.patched` runs the same
loop over the spliced subtree alone and moves a copy of the summary by
it, equal to a rebuild in every field and in the digest.

The path table is strictly **conservative**: every query helper answers
``True`` ("may occur") unless the summary proves absence.  Wildcard and
document-root tests are always satisfiable, and a summary truncated at
:data:`MAX_PATHS` distinct paths answers ``True`` for everything —
soundness over precision, because an over-approximation only costs a
wasted scan while an under-approximation would drop answers.

A document version's one summary is ``doc.derived.summary``; its
:meth:`~StructuralSummary.fingerprint` is the document part of the
plan-cache key.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.tree import ELEMENT, Document, Node

__all__ = ["MAX_PATHS", "PathInfo", "StructuralSummary", "build_summary"]

#: Distinct-label-path cap.  Real documents have tiny DataGuides (the
#: Table 1 corpora stay under a few hundred paths); hitting the cap
#: flips the summary into always-satisfiable mode rather than spending
#: unbounded memory on adversarial documents.
MAX_PATHS = 10_000

#: Pseudo-label for the document node, used as the parent of root-level
#: elements in :attr:`StructuralSummary.parent_labels`.
DOC_LABEL = "#doc"


@dataclass
class PathInfo:
    """Aggregate facts about one distinct label path."""

    #: How many element nodes sit at exactly this label path.
    count: int = 0
    #: Child element labels observed directly below this path.
    children: set[str] = field(default_factory=set)
    #: Attribute names observed on elements at this path.
    attributes: set[str] = field(default_factory=set)
    #: Attribute name -> elements at this path carrying it (what lets a
    #: deletion retract a name from :attr:`attributes`).
    attr_counts: dict[str, int] = field(default_factory=dict,
                                        compare=False, repr=False)


@dataclass
class StructuralSummary:
    """Distinct label paths of one document, with derived indexes and
    the document's exact statistics.

    The derived per-label maps (:attr:`parent_labels` and friends) are
    computed from :attr:`paths` at construction time — they are pure
    accelerations of path-table lookups, never additional facts.
    """

    #: ``(tag, tag, ...)`` root-to-element label path → aggregate info.
    paths: dict[tuple[str, ...], PathInfo]
    #: Whether the path table was cut off at :data:`MAX_PATHS` (every
    #: query helper then answers ``True``).
    truncated: bool = False
    #: Exact per-document aggregates, never truncated.
    stats: DocumentStats = field(default_factory=DocumentStats)
    #: The integer sums behind :attr:`stats`' two means (element depths;
    #: per-tag subtree sizes), kept so a patch can move them exactly.
    depth_sum: int = field(default=0, compare=False, repr=False)
    subtree_totals: dict[str, int] = field(default_factory=dict,
                                           compare=False, repr=False)

    #: label → labels observed as its direct parent (:data:`DOC_LABEL`
    #: for root-level elements).
    parent_labels: dict[str, set[str]] = field(init=False,
                                               default_factory=dict)
    #: label → labels observed as a proper ancestor.
    ancestor_labels: dict[str, set[str]] = field(init=False,
                                                 default_factory=dict)
    #: label → attribute names ever observed on an element of that label.
    label_attributes: dict[str, set[str]] = field(init=False,
                                                  default_factory=dict)
    _digest: str | None = field(init=False, default=None, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        for path, info in self.paths.items():
            label = path[-1]
            parent = path[-2] if len(path) > 1 else DOC_LABEL
            self.parent_labels.setdefault(label, set()).add(parent)
            self.ancestor_labels.setdefault(label, set()).update(path[:-1])
            self.label_attributes.setdefault(label, set()).update(
                info.attributes)

    @property
    def label_counts(self) -> dict[str, int]:
        """label → exact element count (the statistics' tag histogram)."""
        return self.stats.tag_histogram

    # -- query helpers (all conservative: True means "may occur") ------

    def _open(self, tag: str) -> bool:
        """True when no absence claim about ``tag`` can be sound."""
        return self.truncated or tag in ("*", "#root", DOC_LABEL)

    def label_occurs(self, tag: str) -> bool:
        """May an element labelled ``tag`` occur anywhere?"""
        return self._open(tag) or tag in self.label_counts

    def occurs_under(self, tag: str, ancestor: str) -> bool:
        """May ``tag`` occur with ``ancestor`` as a proper ancestor?"""
        if self._open(tag) or self._open(ancestor):
            return True
        return ancestor in self.ancestor_labels.get(tag, ())

    def child_occurs(self, parent: str, child: str) -> bool:
        """May ``child`` occur as a direct child of ``parent``?

        ``parent`` may be :data:`DOC_LABEL` to ask about root elements.
        """
        if self._open(child) or (parent != DOC_LABEL and self._open(parent)):
            return True
        return parent in self.parent_labels.get(child, ())

    def attr_occurs(self, tag: str, attr: str) -> bool:
        """May an element labelled ``tag`` carry attribute ``attr``?"""
        if self._open(tag):
            return self.attr_occurs_anywhere(attr)
        return attr in self.label_attributes.get(tag, ())

    def attr_occurs_anywhere(self, attr: str) -> bool:
        """May attribute ``attr`` occur on any element?"""
        if self.truncated:
            return True
        return any(attr in attrs for attrs in self.label_attributes.values())

    def root_labels(self) -> set[str]:
        """Labels observed on root-level elements."""
        return {path[0] for path in self.paths if len(path) == 1}

    # -- identity -------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable digest of the full path table and of every
        statistic except ``serialized_bytes`` (Table 1's alone).

        The plan-cache key (``Engine.stats_fingerprint``): the chooser,
        the cost model and the lint read nothing else of a document, so
        equal digests mean equal plan decisions, and every version of
        one shape shares its plans.  The statistics are folded in
        directly because the path table does not fix them: subtree
        sizes count text, and a truncated table drops paths.
        """
        if self._digest is None:
            hasher = hashlib.blake2b(digest_size=8)
            stats = self.stats
            hasher.update(repr((
                stats.n_nodes, stats.n_elements, stats.n_text,
                stats.avg_depth, stats.max_depth, stats.n_distinct_tags,
                sorted(stats.tag_histogram.items()), stats.recursive,
                stats.recursion_degree,
                sorted(stats.tag_subtree_avg.items()))).encode())
            if self.truncated:
                hasher.update(b"truncated\x00")
            for path in sorted(self.paths):
                info = self.paths[path]
                hasher.update("/".join(path).encode())
                hasher.update(f"#{info.count}".encode())
                hasher.update(("@" + ",".join(sorted(info.attributes)))
                              .encode())
                hasher.update(b"\x00")
            self._digest = hasher.hexdigest()
        return self._digest

    # -- maintenance ----------------------------------------------------

    def patched(self, parent: Node, run: list[Node], sign: int
                ) -> StructuralSummary | None:
        """This summary after the pre-order ``run`` of one subtree was
        spliced in under the element ``parent`` (``sign`` 1) or cut out
        from under it (``sign`` -1; its labels are the pre-cut ones).

        :func:`_scan` tallies the run alone, with ``parent``'s label
        path as its prefix, and the tally moves a copy of this summary
        that shares every :class:`PathInfo` the run does not touch.  A
        path left with no element goes, with its tag from its parent's
        children; only then are the maximum depth and the recursion
        degree recomputed, over the path table (an element's level is
        its label path's length).  ``None`` when only a rebuild can
        say: this table or the patched one is past :data:`MAX_PATHS`.
        """
        if self.truncated:
            return None
        tags: list[str] = []
        node: Node | None = parent
        while node is not None and node.kind == ELEMENT:
            tags.append(node.tag)  # type: ignore[arg-type]
            node = node.parent
        prefix = tuple(reversed(tags))
        # A run has no more distinct paths than nodes: never truncated.
        delta = _scan(run, [prefix] * (parent.level + 1), len(run))
        paths = dict(self.paths)
        owned: dict[tuple[str, ...], PathInfo] = {}

        def own(path: tuple[str, ...]) -> PathInfo:
            info = owned.get(path)
            if info is None:
                base = paths.get(path) or PathInfo()
                info = owned[path] = paths[path] = PathInfo(
                    base.count, set(base.children), set(base.attributes),
                    dict(base.attr_counts))
            return info

        emptied: list[tuple[str, ...]] = []
        for path, moved in delta.paths.items():
            info = own(path)
            if not info.count:
                own(path[:-1]).children.add(path[-1])
            info.count += sign * moved.count
            if moved.attr_counts:
                counts = info.attr_counts
                for name, count in moved.attr_counts.items():
                    left = counts.get(name, 0) + sign * count
                    if left:
                        counts[name] = left
                    else:
                        del counts[name]
                info.attributes = set(counts)
            if not info.count:
                emptied.append(path)
        for path in emptied:        # pre-order: a parent path goes first
            del paths[path]
            if path[:-1] in paths:
                own(path[:-1]).children.discard(path[-1])
        if len(paths) > MAX_PATHS:
            return None

        stats = self.stats
        histogram = dict(stats.tag_histogram)
        totals = dict(self.subtree_totals)
        for tag in prefix:      # every ancestor's subtree moved by the run
            totals[tag] += sign * len(run)
        for tag, count in delta.histogram.items():
            left = histogram.get(tag, 0) + sign * count
            if left:
                histogram[tag] = left
                totals[tag] = (totals.get(tag, 0)
                               + sign * delta.subtree_totals[tag])
            else:
                del histogram[tag], totals[tag]
        max_depth, degree = stats.max_depth, stats.recursion_degree
        if sign > 0:
            max_depth = max(max_depth, delta.max_depth)
            degree = max(degree, delta.degree)
        elif emptied:
            max_depth = max(map(len, paths), default=0)
            degree = max((path.count(path[-1]) for path in paths),
                         default=0)
        return _Tally(paths, histogram, totals,
                      self.depth_sum + sign * delta.depth_sum, max_depth,
                      degree, False).summary(stats.n_nodes + sign * len(run))

    def __len__(self) -> int:
        return len(self.paths)

    def __repr__(self) -> str:
        return (f"<StructuralSummary {len(self.paths)} paths, "
                f"{len(self.label_counts)} labels"
                + (", truncated" if self.truncated else "") + ">")


def build_summary(doc: Document, max_paths: int = MAX_PATHS
                  ) -> StructuralSummary:
    """Build the summary and the document statistics in one loop over
    the pre-order node list (:func:`_scan`)."""
    n_nodes = doc.root.subtree_size() if doc.root is not None else 0
    return _scan(doc.nodes, [()], max_paths).summary(n_nodes)


@dataclass
class _Tally:
    """The integer aggregates of one pass over a pre-order node run."""

    paths: dict[tuple[str, ...], PathInfo]
    histogram: dict[str, int]
    subtree_totals: dict[str, int]
    depth_sum: int
    max_depth: int
    degree: int
    truncated: bool

    def summary(self, n_nodes: int) -> StructuralSummary:
        histogram, totals = self.histogram, self.subtree_totals
        n_elements = sum(histogram.values())
        stats = DocumentStats(
            n_nodes=n_nodes, n_elements=n_elements,
            n_text=n_nodes - n_elements,
            avg_depth=self.depth_sum / n_elements if n_elements else 0.0,
            max_depth=self.max_depth, n_distinct_tags=len(histogram),
            tag_histogram=histogram, recursive=self.degree > 1,
            recursion_degree=self.degree,
            tag_subtree_avg={tag: total / histogram[tag]
                             for tag, total in totals.items()})
        return StructuralSummary(paths=self.paths, truncated=self.truncated,
                                 stats=stats, depth_sum=self.depth_sum,
                                 subtree_totals=totals)


def _scan(nodes: Iterable[Node], open_paths: list[tuple[str, ...]],
          max_paths: int) -> _Tally:
    """Tally the elements of a pre-order node run.

    ``open_paths[level]`` is the label path of the open element at that
    level (the document node's is ``()``; a subtree's run starts with
    its parent's path at every level above it): a node at ``level``
    closes everything at or below it.  No stack of nodes and no
    recursion, so arbitrarily deep documents cannot blow the
    interpreter stack.
    """
    paths: dict[tuple[str, ...], PathInfo] = {}
    histogram: dict[str, int] = {}
    subtree_totals: dict[str, int] = {}
    depth_sum = max_depth = degree = 0
    truncated = False
    for node in nodes:
        if node.kind != ELEMENT:
            continue
        tag: str = node.tag  # type: ignore[assignment]
        level = node.level
        del open_paths[level:]
        path = open_paths[-1] + (tag,)
        open_paths.append(path)
        histogram[tag] = histogram.get(tag, 0) + 1
        subtree_totals[tag] = (subtree_totals.get(tag, 0)
                               + (node.end - node.start + 1) // 2)
        depth_sum += level
        if level > max_depth:
            max_depth = level
        info = paths.get(path)
        if info is None:
            # Same-tag elements on this root-to-node path: one count per
            # distinct path (every truncated occurrence pays it again).
            same = path.count(tag)
            if same > degree:
                degree = same
            if len(paths) >= max_paths:
                truncated = True
                continue
            info = paths[path] = PathInfo()
            parent = paths.get(open_paths[-2])
            if parent is not None:
                parent.children.add(tag)
        info.count += 1
        attrs = node.attrs
        if attrs:
            counts = info.attr_counts
            for name in attrs:
                counts[name] = counts.get(name, 0) + 1
    for info in paths.values():
        if info.attr_counts:
            info.attributes = set(info.attr_counts)
    return _Tally(paths, histogram, subtree_totals, depth_sum, max_depth,
                  degree, truncated)
