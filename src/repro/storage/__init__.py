"""Tiered artifact storage: one substrate under every cache and store.

One :class:`Tier` protocol and one composition cover the in-memory
compile cache, the on-disk artifact store, and remote warm sources:

* :class:`MemoryTier` — the in-process layer: a byte-budgeted LRU over
  compile results, exec'd module artifacts, and per-unit pass
  artifacts (``repro.pipeline.GLOBAL_CACHE`` is the shared one).
* :class:`DiskTier` — the durable layer: the v2 content-addressed
  artifact directory, one file per result and one pack file per pass
  publication of units, with atomic writes, LRU byte-budget eviction,
  compaction, and per-pass GC (:func:`disk_tier_for` shares one
  instance per directory).
* :class:`PeerTier` — a read-only warm source: a second store root or
  a remote ``repro serve``'s ``/artifact`` endpoint, fetched
  read-through and promoted into the local tiers — the multi-host
  warm-compile path.
* :class:`TieredStore` — composes them: one lookup-and-promote loop
  and one publish loop for both artifact kinds, plus stats and GC
  policies; built once by its owner (``Session(cache_dir=...,
  peers=...)``, the CLI from ``--cache-dir``/``--peer``) and passed to
  every compile as ``pipeline.compile(..., store=...)``. Compile
  options never name a tier: they say what to build, the store says
  where it lives.

Every tier has one read and one write, keyed by artifact kind
(``"result"`` or ``"unit"``): ``fetch(kind, key)`` returns
``(artifact, blob)`` — ``blob`` being the payload bytes a durable tier
read, ``None`` from memory — or ``None``; ``store(kind, key, artifact,
blob=None, promoted=False)`` adopts one. The durable address (the
``v2/`` layout of result files and unit packs, and the ``/artifact``
routes) and the exchange format (versioned pickled payloads, and the
pack that holds many of them) live in :mod:`repro.storage.base`,
shared by disk files, peer fetches, and the service's ``/artifact``
endpoint.
"""

from repro.storage.base import (
    FORMAT_VERSION,
    ResultKey,
    Tier,
    artifact_path,
    artifact_route,
    decode,
    encode,
    is_content_hash,
    is_safe_pass_name,
    route_key,
)
from repro.storage.disk import DiskTier, disk_tier_for
from repro.storage.memory import MemoryTier, approx_size
from repro.storage.peer import PeerTier, peer_tier_for
from repro.storage.tiered import TieredStore

__all__ = [
    "FORMAT_VERSION",
    "DiskTier",
    "MemoryTier",
    "PeerTier",
    "ResultKey",
    "Tier",
    "TieredStore",
    "approx_size",
    "artifact_path",
    "artifact_route",
    "decode",
    "disk_tier_for",
    "encode",
    "is_content_hash",
    "is_safe_pass_name",
    "peer_tier_for",
    "route_key",
]
