"""Traversal service: persistent artifacts + batched async execution.

The compiler (``repro.pipeline``) produces content-addressed artifacts,
persisted across restarts by :class:`repro.storage.DiskTier` (a cold
start with a warm store skips the whole parse→fuse→emit pipeline);
this package makes them *servable*:

* :mod:`repro.service.batching` — execution requests, grouping by
  compiled artifact, and forest sharding.
* :mod:`repro.service.executor` — a batch executor that runs sharded
  forests on a worker pool and records per-batch metrics.
* :mod:`repro.service.api` — the front end: a workload registry, the
  :class:`TraversalService` (HTTP bookkeeping over one
  :class:`repro.Session`), and a small stdlib HTTP server behind the
  ``repro serve`` CLI; its ``/artifact`` endpoint serves the store to
  other hosts as a :class:`repro.storage.PeerTier`.
"""

_EXPORTS = {
    "ExecRequest": "repro.service.batching",
    "RequestGroup": "repro.service.batching",
    "TreeResult": "repro.service.batching",
    "group_requests": "repro.service.batching",
    "shard_indexes": "repro.service.batching",
    "BatchExecutor": "repro.service.executor",
    "RequestResult": "repro.service.executor",
    "TraversalService": "repro.service.api",
    "WORKLOADS": "repro.service.api",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # lazy exports (PEP 562): the pipeline consults the store on every
    # compile, and importing the whole executor/api stack
    # (concurrent.futures, http.server) there would charge ~50 ms of
    # module imports to a warm-store load that otherwise costs ~2 ms
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
