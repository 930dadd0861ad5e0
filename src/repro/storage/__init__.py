"""Tiered artifact storage: one substrate under every cache and store.

PR 2–4 grew three parallel storage mechanisms — the in-memory compile
cache's result/unit LRUs, the on-disk artifact store, and the per-pass
unit view — each with its own eviction rules and stats. This package
unifies them behind one :class:`Tier` protocol and one composition:

* :class:`MemoryTier` — the in-process layer: a byte-budgeted LRU over
  compile results, exec'd module artifacts, and per-unit pass
  artifacts (``repro.pipeline.GLOBAL_CACHE`` is the shared one).
* :class:`DiskTier` — the durable layer: the v1 content-addressed
  artifact directory with atomic writes, LRU byte-budget eviction,
  compaction, and per-pass GC (:func:`disk_tier_for` shares one
  instance per directory).
* :class:`PeerTier` — a read-only warm source: a second store root or
  a remote ``repro serve``'s ``/artifact`` endpoint, fetched
  read-through and promoted into the local tiers — the multi-host
  warm-compile path.
* :class:`TieredStore` — composes them with unified get/put/stats and
  GC policies; built per compile by the pipeline driver from
  ``CompileOptions(cache_dir=..., peers=...)``.

The durable exchange format (versioned pickled payloads) lives in
:mod:`repro.storage.base` and is shared by disk files, peer fetches,
and the service's ``/artifact`` endpoint.
"""

from repro.storage.base import (
    FORMAT_VERSION,
    ResultKey,
    Tier,
    decode_result,
    decode_unit,
    encode_result,
    encode_unit,
    is_content_hash,
    is_safe_pass_name,
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
    "decode_result",
    "decode_unit",
    "disk_tier_for",
    "encode_result",
    "encode_unit",
    "is_content_hash",
    "is_safe_pass_name",
    "peer_tier_for",
]
