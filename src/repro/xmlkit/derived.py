"""The one owner of what is computed from one version of a document.

The structural summary (which carries the statistics), tag postings,
the serialized-text column, the typed-value column and the arena file
are materialised views of one document version (the paper's
Section-2.1 update problem).  They hang off ``doc.derived``.  A version
*inherits* the summary, the postings and the serialized-text column
its predecessor had built: a fork takes them over (:func:`carry_fork`),
and each update patches them (:func:`carry_splice`).  The typed-value
column and the arena file are never inherited: the column is filled
slot by slot at nids an update shifts, and the file is one version's
image.  Whatever was not inherited is
built by its first reader — a race builds an equal value twice; only
the arena file write takes a lock, because a second file would leak.
:meth:`Document.drop_derived` drops them all.  Every version gets a new
state object, and holders key memos on the *identity* of this object,
so they have nothing to clear.  DESIGN.md ("Derived state") has the
table of builders and readers.
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.xmlkit.arena import DocumentArena
from repro.xmlkit.index import TagIndex
from repro.xmlkit.writer import TextColumn, patched_column, text_column
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.summary import StructuralSummary, build_summary
from repro.xmlkit.tree import ELEMENT, Document, Node

__all__ = ["DerivedState", "carry_fork", "carry_splice"]

_arena_lock = threading.Lock()


class DerivedState:
    """Obtained as ``doc.derived``; never constructed by callers."""

    __slots__ = ("doc", "index", "_dataguide", "_xml", "_numbers",
                 "_arena_path")

    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self.index = TagIndex(doc)      # lists materialize on use
        self._dataguide: StructuralSummary | None = None
        self._xml: TextColumn | None = None
        self._numbers: list[float | None] | None = None
        self._arena_path: str | None = None

    @property
    def summary(self) -> StructuralSummary:
        """The DataGuide and the statistics: inherited from the previous
        version, else the version's one O(n) structural pass."""
        if self._dataguide is None:
            self._dataguide = build_summary(self.doc)
        return self._dataguide

    @property
    def xml(self) -> TextColumn:
        """The serialized-text column, which ``serialize`` slices:
        inherited from the previous version, else one flat pass over
        ``doc.nodes`` (:func:`~repro.xmlkit.writer.text_column`)."""
        column = self._xml
        if column is None:  # a race builds an equal column twice
            column = self._xml = text_column(self.doc.nodes)
        return column

    @property
    def numbers(self) -> list[float | None]:
        """The typed-value column: per nid, the node's string value as a
        number (NaN for text that is none), or ``None`` until the first
        numeric vertex filter (:mod:`repro.xpath.compile`) reads the
        node and fills the slot."""
        if self._numbers is None:  # a race builds an equal list twice
            self._numbers = [None] * len(self.doc.nodes)
        return self._numbers

    @property
    def stats(self) -> DocumentStats:
        """Read-through: the summary's statistics (no serialized size)."""
        return self.summary.stats

    def arena_file(self) -> str:
        """Path of the serialized arena every ``processes:N`` scan of
        this version maps; written on first call."""
        with _arena_lock:
            if self._arena_path is None:
                fd, path = tempfile.mkstemp(prefix="repro-arena-",
                                            suffix=".btra")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(
                            DocumentArena.from_document(self.doc).to_bytes())
                except BaseException:
                    os.unlink(path)
                    raise
                self._arena_path = path
            return self._arena_path

    def unlink_arena(self) -> None:
        """Unlink the arena file, if any.  Workers holding the mapping
        keep reading safely (the inode lives until the last map drops)."""
        with _arena_lock:
            path, self._arena_path = self._arena_path, None
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass


def carry_fork(base: Document, fork: Document, clones: list[Node]) -> None:
    """Start ``fork``, a copy of ``base`` whose node ``nid`` is
    ``clones[nid]``, with the summary, postings and serialized-text
    column ``base`` has built.

    Read now: ``base`` drops its state when it retires.  The summary and
    the column are shared (never mutated; a patch copies), the postings
    are remapped.
    """
    state = base._derived
    if state is None:
        return
    carried = DerivedState(fork)
    carried._dataguide = state._dataguide
    carried._xml = state._xml
    if state.index.built:
        carried.index = state.index.remapped(fork, clones)
    fork._derived = carried


def carry_splice(doc: Document, parent: Node, run: list[Node],
                 sign: int) -> bool:
    """Replace ``doc``'s state by its patched successor after the
    pre-order ``run`` of one subtree was spliced in (``sign`` 1) or cut
    out (-1) under ``parent`` and the document relabeled.

    The old state (and its arena file) is dropped.  Nothing is carried
    over a splice under the document node; a summary past the path cap,
    and a column whose ``parent`` changed form, are rebuilt by the next
    reader.  Returns whether the old state
    had materialised postings: the ones this update maintained.
    """
    state = doc._derived
    maintained = doc.drop_derived()
    if state is None or parent.kind != ELEMENT:
        return maintained
    carried = DerivedState(doc)
    if state._dataguide is not None:
        carried._dataguide = state._dataguide.patched(parent, run, sign)
    if state._xml is not None:
        carried._xml = patched_column(state._xml, parent, run, sign)
    if maintained:
        carried.index = state.index.patched(run, sign)
    doc._derived = carried
    return maintained
