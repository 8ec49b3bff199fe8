"""``repro.serve`` — snapshot-isolated concurrent query serving.

The serving layer on top of a
:class:`~repro.engine.database.Database` — the owner of one versioned
document (immutable :class:`Snapshot` per published update batch,
copy-on-write via :class:`SnapshotUpdater`): a
:class:`QueryService` worker pool with admission control, per-query
deadlines, snapshot-keyed result caching and a plan cache keyed by
document shape — and the network front end over it: a
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

#: Every name is imported on first use (see ``__getattr__``): a
#: ``Database`` versions its document with :class:`Snapshot`, so
#: ``repro.connect`` imports this package, and it must not pay for the
#: network front end (``asyncio``, sockets) a caller may never start.
_LAZY = {
    "AdmissionController": "repro.serve.throttle",
    "Client": "repro.serve.client",
    "ClientResult": "repro.serve.client",
    "QueryService": "repro.serve.service",
    "RemotePrepared": "repro.serve.client",
    "ResultCacheStorage": "repro.serve.cachepolicy",
    "ServeResult": "repro.serve.service",
    "Server": "repro.serve.server",
    "Snapshot": "repro.serve.snapshot",
    "SnapshotUpdater": "repro.serve.snapshot",
    "fork_document": "repro.serve.snapshot",
    "listen": "repro.serve.server",
}
__all__ = sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module), name)
