"""``repro.serve`` — snapshot-isolated concurrent query serving.

The serving layer on top of the engine: a :class:`Catalog` of named,
versioned documents (immutable :class:`Snapshot` per published update
batch, copy-on-write via :class:`SnapshotUpdater`), a
:class:`QueryService` worker pool with admission control, per-query
deadlines, snapshot-keyed plan/result caching and retry-once on
invalidated plans — and the network front end over it: a
:class:`Server` speaking the length-prefixed JSON frame protocol of
:mod:`repro.serve.protocol` with adaptive, latency-targeting admission
(:mod:`repro.serve.throttle`), mirrored by the blocking
:class:`Client` in :mod:`repro.serve.client`.

Most callers reach this through the top-level facade::

    import repro
    import repro.serve.client

    with repro.connect("library.xml") as db:
        server = db.listen()                    # network front end
        client = repro.serve.client.connect(*server.address)
        print(client.query("//book[author]/title",
                           timeout_ms=100).serialize())
"""

from repro.serve.cachepolicy import ResultCacheStorage, resolve_result_cache
from repro.serve.catalog import Catalog
from repro.serve.client import Client, ClientResult, RemotePrepared
from repro.serve.server import Server, listen
from repro.serve.service import QueryService, ServeResult
from repro.serve.snapshot import Snapshot, SnapshotUpdater, fork_document
from repro.serve.throttle import AdmissionController

__all__ = [
    "AdmissionController",
    "Catalog",
    "Client",
    "ClientResult",
    "QueryService",
    "RemotePrepared",
    "ResultCacheStorage",
    "ServeResult",
    "Server",
    "Snapshot",
    "SnapshotUpdater",
    "fork_document",
    "listen",
    "resolve_result_cache",
]
