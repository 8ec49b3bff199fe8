"""DataGuide-style structural summary for static query analysis.

A :class:`StructuralSummary` records every **distinct label path** that
occurs in a document (root-to-element tag sequences), with occurrence
counts, the set of child labels observed below each path, and the set
of attribute names observed on it.  It is the data-shape oracle behind
the ``QL`` query-lint passes (:mod:`repro.analysis.query`): a step
whose label never occurs — or never occurs under the ancestor the
pattern requires — is statically unsatisfiable, so the compiler can cut
the branch (or the whole plan) before a single node is scanned.

The summary is built in one pass over the node arena (same traversal
discipline as :func:`repro.xmlkit.stats.compute_stats`) and is strictly
**conservative**: every query helper answers ``True`` ("may occur")
unless the summary proves absence.  Wildcard and document-root tests
are always satisfiable, and a summary truncated at :data:`MAX_PATHS`
distinct paths answers ``True`` for everything — soundness over
precision, because an over-approximation only costs a wasted scan
while an under-approximation would drop answers.

A document version's one summary is ``doc.derived.summary``, keyed out
of the plan cache by :meth:`fingerprint`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass, field

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


@dataclass
class StructuralSummary:
    """Distinct label paths of one document, with derived indexes.

    The derived per-label maps (:attr:`label_counts` and friends) are
    computed from :attr:`paths` at construction time — they are pure
    accelerations of path-table lookups, never additional facts.
    """

    #: ``(tag, tag, ...)`` root-to-element label path → aggregate info.
    paths: dict[tuple[str, ...], PathInfo]
    #: Whether the path table was cut off at :data:`MAX_PATHS` (every
    #: query helper then answers ``True``).
    truncated: bool = False

    label_counts: dict[str, int] = field(init=False, default_factory=dict)
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
    _digest: str | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        for path, info in self.paths.items():
            label = path[-1]
            self.label_counts[label] = (self.label_counts.get(label, 0)
                                        + info.count)
            parent = path[-2] if len(path) > 1 else DOC_LABEL
            self.parent_labels.setdefault(label, set()).add(parent)
            self.ancestor_labels.setdefault(label, set()).update(path[:-1])
            self.label_attributes.setdefault(label, set()).update(
                info.attributes)

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
        """A stable digest of the full path table.

        Joins the plan-cache key (via ``Engine.stats_fingerprint``) so
        plans pruned against one document shape can never serve another:
        a summary rebuild after mutation keys every stale pruned plan
        out even when the coarse :class:`DocumentStats` quantities
        happen to coincide.
        """
        if self._digest is None:
            hasher = hashlib.blake2b(digest_size=8)
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

    def __len__(self) -> int:
        return len(self.paths)

    def __repr__(self) -> str:
        return (f"<StructuralSummary {len(self.paths)} paths, "
                f"{len(self.label_counts)} labels"
                + (", truncated" if self.truncated else "") + ">")


def _iter_elements(doc: Document) -> Iterator[tuple[Node, bool]]:
    """Yield ``(element, leaving)`` pairs in document order.

    Same explicit-stack discipline as ``compute_stats`` — no recursion,
    so arbitrarily deep documents cannot blow the interpreter stack.
    """
    stack: list[tuple[Node, bool]] = [(doc.root, False)]
    while stack:
        node, leaving = stack.pop()
        if node.kind != ELEMENT:
            continue
        yield node, leaving
        if not leaving:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))


def build_summary(doc: Document, max_paths: int = MAX_PATHS
                  ) -> StructuralSummary:
    """Build the structural summary in one pass over the node arena."""
    paths: dict[tuple[str, ...], PathInfo] = {}
    label_stack: list[str] = []
    truncated = False
    for node, leaving in _iter_elements(doc):
        if leaving:
            label_stack.pop()
            continue
        label_stack.append(node.tag)
        path = tuple(label_stack)
        info = paths.get(path)
        if info is None:
            if len(paths) >= max_paths:
                truncated = True
                continue
            info = paths[path] = PathInfo()
            if len(path) > 1:
                parent = paths.get(path[:-1])
                if parent is not None:
                    parent.children.add(node.tag)
        info.count += 1
        if node.attrs:
            info.attributes.update(node.attrs)
    return StructuralSummary(paths=paths, truncated=truncated)
