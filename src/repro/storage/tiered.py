"""Tier composition: one read-through store over memory → disk → peers.

A :class:`TieredStore` is what the compile driver, the executor and the
service actually talk to. Its owner builds it once — a
:class:`~repro.api.session.Session` from its ``cache_dir``, ``peers`` and
budgets, the CLI from ``--cache-dir`` and ``--peer`` — and passes it to
every compile (:func:`repro.pipeline.compile` takes ``store=``). It
walks its tiers in order for every lookup, of either artifact kind, and
on a hit **promotes** the artifact into every writable tier above the
one that served it — a disk hit lands in memory for the rest of the
process, a peer hit lands on the local disk *and* in memory, so the
peer is asked once per artifact per store, not once per compile. Writes
("publication") go to every writable tier, with disk writes further
gated by the store's ``persist`` flag (a ``persist=False`` reader must
never dirty a shared store) — which is also why promotion and
publication share one writability test. A pass publishes each unit to
memory as it computes it (:meth:`TieredStore.put_unit`) and all of them
to disk at once, as one pack, when its worklist is done
(:meth:`TieredStore.put_units`).

The usual stack::

    MemoryTier (the compile cache)      — always first
    DiskTier   (the store directory)    — when a store is configured
    PeerTier*  (in order)               — read-only warm sources

Any prefix/subset works: a memory-only store is the classic in-process
cache (what a bare ``pipeline.compile`` runs against); a peers-only
store is a diskless read-through client. ``gc`` and ``stats`` fan out
per tier, labelled, which is what the ``repro store gc`` CLI and the
service's ``POST /gc`` / tier-labelled ``/stats`` surface.

A store pickles as where its tiers live — memory, each disk root, each
peer target, in order — and its ``persist`` flag, and loads over the
loading process's own tiers: its ``repro.pipeline.GLOBAL_CACHE`` and
its registry instance for each root and target. That is how a
process-pool worker resolves through its executor's store.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.storage.base import (
    RESULT,
    UNIT,
    ResultKey,
    Tier,
    is_safe_pass_name,
)
from repro.storage.disk import disk_tier_for
from repro.storage.peer import peer_tier_for

# where a tier of each kind lives, which is all a pickled store keeps
# of it (see the module docstring)
_PLACES = {
    "memory": lambda tier: None,
    "disk": lambda tier: str(tier.root),
    "peer": lambda tier: tier.target,
}

# lookup outcomes by kind (result|unit) and outcome (a tier label on a
# hit, "miss" otherwise) — the registry face of the tiers' own stats()
_LOOKUPS = obs.REGISTRY.counter(
    "repro_storage_lookups_total",
    "tiered-store lookups by artifact kind and serving tier",
    labels=("kind", "outcome"),
)


class TieredStore:
    """Read-through composition of storage tiers (see module doc)."""

    def __init__(self, tiers: Sequence[Tier], persist: bool = True):
        self.tiers = [tier for tier in tiers if tier is not None]
        self.persist = persist
        # the in-process tier, if any: the only one that also holds
        # exec'd modules (the emit pass looks them up here)
        self.memory = next(
            (tier for tier in self.tiers if tier.kind == "memory"), None
        )

    def __reduce__(self):
        places = tuple(
            (tier.kind, _PLACES[tier.kind](tier)) for tier in self.tiers
        )
        return _reopen, (places, self.persist)

    def writable(self, tier: Tier) -> bool:
        """Publication/promotion target? Peers never are; disk only
        when this store persists."""
        return tier.writable and (tier.kind != "disk" or self.persist)

    # -- the two loops --------------------------------------------------

    def _fetch(self, kind: str, key):
        """``(artifact, serving tier)`` or ``None``. The first tier that
        holds the artifact wins, and the hit is promoted into every
        writable tier above it, with the payload bytes it was read as: a
        peer hit lands on the local disk as the peer's exact bytes (no
        re-pickle on the hot cross-process warm path), and in memory as
        a ``promoted`` adoption (so its hit/miss bookkeeping stays
        honest)."""
        attrs = {"pass_name": key[0]} if kind == UNIT else {}
        with obs.span(f"storage.{kind}", **attrs) as span:
            for depth, tier in enumerate(self.tiers):
                got = tier.fetch(kind, key)
                if got is None:
                    continue
                artifact, blob = got
                for upper in self.tiers[:depth]:
                    if self.writable(upper):
                        upper.store(
                            kind, key, artifact, blob, promoted=True
                        )
                span.set(hit=True, tier=tier.label, depth=depth)
                _LOOKUPS.labels(kind=kind, outcome=tier.label).inc()
                return artifact, tier
            span.set(hit=False)
            _LOOKUPS.labels(kind=kind, outcome="miss").inc()
            return None

    def _publish(self, kind: str, key, artifact, durable: bool) -> None:
        """One freshly computed artifact into every writable tier —
        durable ones only when *durable*."""
        for tier in self.tiers:
            if self.writable(tier) and (durable or tier.kind == "memory"):
                tier.store(kind, key, artifact)

    # -- entry points ---------------------------------------------------

    def get_result(self, key: ResultKey):
        got = self._fetch(RESULT, key)
        return None if got is None else got[0]

    def put_result(self, key: ResultKey, result) -> None:
        self._publish(RESULT, key, result, durable=True)

    def get_unit(self, pass_name: str, key: str):
        """``(artifact, serving tier)`` or ``None`` — callers
        (:class:`~repro.pipeline.units.UnitArtifacts`) use the tier to
        attribute the hit in per-pass counters."""
        return self._fetch(UNIT, (pass_name, key))

    def put_unit(
        self, pass_name: str, key: str, artifact, spill: bool = False
    ) -> None:
        """Publish one freshly computed unit: always to memory; to disk,
        as a one-unit pack, only with ``spill``."""
        self._publish(UNIT, (pass_name, key), artifact, durable=spill)

    def put_units(self, pass_name: str, units) -> None:
        """Publish one pass's freshly computed ``(key, artifact)`` units
        to every writable durable tier as one pack. Memory is not
        written: each unit went there through :meth:`put_unit`."""
        if not units:
            return
        triples = [(key, artifact, None) for key, artifact in units]
        for tier in self.tiers:
            if self.writable(tier) and tier.kind != "memory":
                tier.store_pack(pass_name, triples)

    # -- maintenance ----------------------------------------------------

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """Run one GC policy across every writable tier (the same
        writability test as publication — a ``persist=False`` store
        stays untouched); returns the per-tier summaries plus a
        total."""
        if (
            pass_name is None
            and max_age_seconds is None
            and max_bytes is None
        ):
            raise ValueError(
                "gc needs a pass_name, max_age_seconds, and/or max_bytes"
            )
        if pass_name is not None and not is_safe_pass_name(pass_name):
            raise ValueError(f"invalid pass name {pass_name!r}")
        per_tier = {}
        removed = 0
        reclaimed = 0
        for tier in self.tiers:
            if not self.writable(tier):
                continue
            summary = tier.gc(
                pass_name=pass_name,
                max_age_seconds=max_age_seconds,
                max_bytes=max_bytes,
            )
            per_tier[tier.label] = summary
            removed += summary.get("removed", 0)
            reclaimed += summary.get("reclaimed_bytes", 0)
        per_tier["total"] = {
            "removed": removed,
            "reclaimed_bytes": reclaimed,
        }
        return per_tier

    def stats(self) -> list[dict]:
        """One labelled record per tier, in lookup order."""
        return [
            {"label": tier.label, "kind": tier.kind, **tier.stats()}
            for tier in self.tiers
        ]


def _reopen(places, persist: bool) -> TieredStore:
    """A pickled :class:`TieredStore` in the loading process (see the
    module docstring)."""
    from repro.pipeline.driver import GLOBAL_CACHE

    openers = {
        "memory": lambda _: GLOBAL_CACHE,
        "disk": disk_tier_for,
        "peer": peer_tier_for,
    }
    return TieredStore(
        [openers[kind](where) for kind, where in places], persist=persist
    )
