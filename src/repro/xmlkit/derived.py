"""The one owner of what is computed from one version of a document.

The structural summary (which carries the statistics), tag postings and
the arena file are materialised views of one document version (the
paper's Section-2.1 update problem).  They hang off ``doc.derived``,
are each built by their first reader and at most once per version — a
race builds an equal value twice; only the arena file write takes a
lock, because a second file would leak — and
:meth:`Document.drop_derived` drops them all.  Holders key memos on the
*identity* of this object, so they have nothing to clear.  DESIGN.md
("Derived state") has the table of builders and readers.
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.xmlkit.arena import DocumentArena
from repro.xmlkit.index import TagIndex
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.summary import StructuralSummary, build_summary
from repro.xmlkit.tree import Document

__all__ = ["DerivedState"]

_arena_lock = threading.Lock()


class DerivedState:
    """Obtained as ``doc.derived``; never constructed by callers."""

    __slots__ = ("doc", "index", "_dataguide", "_arena_path")

    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self.index = TagIndex(doc)      # lists materialize on use
        self._dataguide: StructuralSummary | None = None
        self._arena_path: str | None = None

    @property
    def summary(self) -> StructuralSummary:
        """The DataGuide and the statistics: the version's one O(n)
        structural pass."""
        if self._dataguide is None:
            self._dataguide = build_summary(self.doc)
        return self._dataguide

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
