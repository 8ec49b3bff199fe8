"""XML substrate: parser, tree model, labels, index, stats, storage.

Everything above this package (pattern matching, joins, the FLWOR
engine) consumes XML exclusively through these interfaces; no external
XML library is used anywhere in the repository.
"""

from repro.xmlkit.index import TagIndex
from repro.xmlkit.parser import parse, parse_file
from repro.xmlkit.writer import pretty, serialize
from repro.xmlkit.stats import DocumentStats, compute_stats
from repro.xmlkit.storage import ScanCounters, SequentialScan
from repro.xmlkit.update import DocumentUpdater, UpdateReport
from repro.xmlkit.tree import (
    DOCUMENT,
    ELEMENT,
    TEXT,
    Document,
    DocumentBuilder,
    Node,
    deep_equal,
    deep_equal_sequences,
)

__all__ = [
    "DOCUMENT",
    "ELEMENT",
    "TEXT",
    "Document",
    "DocumentBuilder",
    "DocumentStats",
    "DocumentUpdater",
    "Node",
    "ScanCounters",
    "SequentialScan",
    "TagIndex",
    "UpdateReport",
    "compute_stats",
    "deep_equal",
    "deep_equal_sequences",
    "parse",
    "parse_file",
    "pretty",
    "serialize",
]
