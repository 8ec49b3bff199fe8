"""BlossomTree: evaluating correlated XPaths in FLWOR expressions.

A from-scratch reproduction of Zhang, Agrawal and Ozsu,
"BlossomTree: Evaluating XPaths in FLWOR Expressions" (ICDE 2005 /
UWaterloo TR CS-2004-58).

The front door is :func:`connect` — it takes XML text, a path to an XML
file, or a path to a saved binary database, and returns a
:class:`Database` (a context manager)::

    import repro

    with repro.connect("library.xml") as db:
        result = db.query('//book[author]/title')

For repeated traffic, compile once and execute many times::

    plan = db.prepare('for $b in //book where $b/price < $max '
                      'return $b/title')
    plan.execute(params={"max": 20.0})

For concurrent traffic, start the snapshot-isolated query service::

    with repro.connect("library.xml") as db:
        service = db.serve(workers=8)
        future = service.submit('//book[author]/title', timeout_ms=100)
        print(future.result().serialize())
        with service.updater() as up:      # copy-on-write update batch
            up.delete_subtree(up.doc.root.children[0])

The database is the one owner of the document's versions, plan cache
and slow-query log: ``db.updater()`` publishes into the same versions
as ``service.updater()``, a commit outlives the service, and direct and
served queries record into one log.

For remote traffic, put the network front end on a socket — adaptive
latency-targeting admission, per-request deadlines, streamed results::

    with repro.connect("library.xml") as db:
        server = db.listen()               # or repro.listen(source)
        client = repro.serve.client.connect(*server.address)
        print(client.query('//book[author]/title',
                           timeout_ms=100).serialize())

``__all__`` below is the supported public surface; everything else —
including the :class:`Engine` behind ``db.engine`` — is internal and
may change between releases.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.errors import (
    WIRE_CODES,
    BindingError,
    CompileError,
    DNFError,
    ExecutionError,
    ProtocolError,
    QueryCancelledError,
    QuerySyntaxError,
    QueryTimeoutError,
    ReproError,
    ServiceOverloadedError,
    StaticError,
    UpdateError,
    UsageError,
    XMLSyntaxError,
    error_for_code,
    wire_code,
)
from repro.xmlkit import parse, parse_file, serialize

__all__ = [
    # the front door
    "connect",
    # errors (the complete hierarchy, rooted at ReproError)
    "BindingError",
    "CompileError",
    "DNFError",
    "ExecutionError",
    "ProtocolError",
    "QueryCancelledError",
    "QuerySyntaxError",
    "QueryTimeoutError",
    "ReproError",
    "ServiceOverloadedError",
    "StaticError",
    "UpdateError",
    "UsageError",
    "XMLSyntaxError",
    # the network wire contract (error class <-> stable code)
    "WIRE_CODES",
    "error_for_code",
    "wire_code",
    # engine facades
    "Database",
    "Engine",
    "PreparedQuery",
    "QueryResult",
    # serving layer
    "QueryService",
    "ServeResult",
    "Snapshot",
    "SnapshotUpdater",
    # network serving layer
    "Client",
    "Server",
    "listen",
    # xml toolkit
    "parse",
    "parse_file",
    "serialize",
]

#: Facade classes imported lazily (see ``__getattr__``) to keep
#: ``import repro`` cheap and free of subpackage import cycles.
_LAZY = {
    "Engine": ("repro.engine.session", "Engine"),
    "Database": ("repro.engine.database", "Database"),
    "PreparedQuery": ("repro.engine.prepared", "PreparedQuery"),
    "QueryResult": ("repro.engine.result", "QueryResult"),
    "QueryService": ("repro.serve.service", "QueryService"),
    "ServeResult": ("repro.serve.service", "ServeResult"),
    "Snapshot": ("repro.serve.snapshot", "Snapshot"),
    "SnapshotUpdater": ("repro.serve.snapshot", "SnapshotUpdater"),
    "Client": ("repro.serve.client", "Client"),
    "Server": ("repro.serve.server", "Server"),
    "listen": ("repro.serve.server", "listen"),
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is not None:
        from importlib import import_module

        return getattr(import_module(target[0]), target[1])
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def connect(source, *, slow_query_ms: float | None = None):
    """Open a :class:`Database` from whatever the caller has.

    ``source`` may be

    * XML text (anything containing ``<``) — parsed in memory;
    * a path to a saved binary database (the ``BTRX1`` format written
      by :meth:`Database.save`) — loaded;
    * a path to an XML file — parsed;
    * an already parsed :class:`~repro.xmlkit.tree.Document`.

    The returned database is a context manager: leaving the ``with``
    block drains any running query service and closes the slow-query
    log.  ``slow_query_ms`` enables the slow-query log at the given
    threshold from the start.
    """
    from pathlib import Path

    from repro.engine.database import Database
    from repro.xmlkit.binary import MAGIC, load
    from repro.xmlkit.tree import Document

    if isinstance(source, Document):
        db = Database(source, slow_query_ms=slow_query_ms)
    elif isinstance(source, Path) or (isinstance(source, str)
                                      and "<" not in source):
        path = Path(source)
        if not path.exists():
            raise UsageError(
                f"connect({str(source)!r}): no such file (XML text must "
                "contain '<' to be treated as a document)")
        with path.open("rb") as handle:
            magic = handle.read(len(MAGIC))
        if magic == MAGIC:
            db = Database(load(path.read_bytes()),
                          slow_query_ms=slow_query_ms)
        else:
            db = Database(parse(path.read_text(encoding="utf-8")),
                          slow_query_ms=slow_query_ms)
    elif isinstance(source, str):
        db = Database(parse(source), slow_query_ms=slow_query_ms)
    else:
        raise UsageError(
            f"connect(): expected XML text, a path or a Document, "
            f"got {type(source).__name__}")
    return db
