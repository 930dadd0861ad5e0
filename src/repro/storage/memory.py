"""The in-process tier: one byte-budgeted LRU over three sections.

Three artifact sections — whole compile results, exec'd module
artifacts, and per-unit pass artifacts — share **one byte budget**
under a **global LRU**: every entry carries an approximate byte size
and a recency stamp, and when the tier is over budget the globally
least-recently-used entry goes first, whichever section it lives in.
Per-section entry-count caps are a second bound so a flood of tiny
entries cannot crowd the dictionaries either.

Sizes are approximations: strings and bytes by length, objects by a
shallow scan of their string-valued fields (two levels deep, which
catches the generated-source payloads that dominate results and
compiled modules) plus a nominal overhead. Deliberately *not* a
pickle round trip — sizing runs on every cache store, the hottest
storage path there is, and must stay O(fields), not O(artifact).
Budget enforcement is about orders of magnitude, not accounting.

Operations take an internal lock — the batch executor's worker threads
share one tier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.storage.base import ResultKey

_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_NOMINAL_OBJECT_BYTES = 2048


def approx_size(value, _depth: int = 2) -> int:
    """Approximate in-memory footprint of one cached value, in bytes.

    Cheap by construction (no serialization): byte/str payloads by
    length, everything else by a shallow walk over ``__dict__`` string
    fields — the text the big artifacts actually carry (a compile
    result's generated sources, a compiled module's source) — plus a
    flat per-object overhead.
    """
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    size = _NOMINAL_OBJECT_BYTES
    if _depth <= 0:
        return size
    fields = getattr(value, "__dict__", None)
    if fields:
        for attr in fields.values():
            if isinstance(attr, (str, bytes)):
                size += len(attr)
            elif getattr(attr, "__dict__", None):
                size += approx_size(attr, _depth - 1)
    return size


@dataclass
class _Entry:
    value: object
    size: int
    stamp: int  # global LRU clock (higher = more recent)
    wall: float  # insertion wall time (gc max_age)


class MemoryTier:
    """Byte-budgeted LRU of results, module artifacts, and unit
    artifacts — the first tier of every :class:`TieredStore`."""

    kind = "memory"
    label = "memory"
    writable = True

    def __init__(
        self,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        max_entries: int = 128,
        max_units: int = 4096,
    ):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        # units are small and numerous (one per method / fused sequence
        # per pass), so they get their own, much larger count cap — a
        # single render compile touches ~150 of them
        self.max_units = max_units
        self._lock = threading.RLock()
        self._results: OrderedDict[tuple[str, str], _Entry] = OrderedDict()
        self._artifacts: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._units: OrderedDict[tuple[str, str], _Entry] = OrderedDict()
        self._bytes = 0
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.unit_hits = 0
        self.unit_misses = 0
        self.evictions = 0

    # -- internals ------------------------------------------------------

    def _touch(self, section: OrderedDict, key) -> None:
        self._clock += 1
        section[key].stamp = self._clock
        section.move_to_end(key)

    def _insert(self, section: OrderedDict, key, value, count_cap: int) -> None:
        old = section.get(key)
        if old is not None:
            self._bytes -= old.size
        self._clock += 1
        entry = _Entry(
            value=value,
            size=approx_size(value),
            stamp=self._clock,
            wall=time.time(),
        )
        section[key] = entry
        section.move_to_end(key)
        self._bytes += entry.size
        while len(section) > count_cap:
            self._pop_lru(section)
        self._enforce_budget()

    def _pop_lru(self, section: OrderedDict) -> None:
        _, entry = section.popitem(last=False)
        self._bytes -= entry.size
        self.evictions += 1

    def _enforce_budget(self) -> None:
        """Evict the globally least-recently-used entry (any section)
        until the tier fits the byte budget."""
        while self._bytes > self.max_bytes:
            victim_section = None
            victim_stamp = None
            for section in (self._results, self._artifacts, self._units):
                if not section:
                    continue
                head = next(iter(section.values()))
                if victim_stamp is None or head.stamp < victim_stamp:
                    victim_stamp = head.stamp
                    victim_section = section
            if victim_section is None:
                break
            self._pop_lru(victim_section)

    # -- results --------------------------------------------------------

    def get_result(self, key: ResultKey):
        with self._lock:
            entry = self._results.get(key.memory_key)
            if entry is not None:
                self._touch(self._results, key.memory_key)
                self.hits += 1
                return entry.value
            self.misses += 1
            return None

    def put_result(
        self, key: ResultKey, result, promoted: bool = False
    ) -> None:
        """Adopt a result — ``promoted`` marks read-through promotion
        from a lower tier, which converts this lookup's recorded miss
        into a ``disk_hits`` (served-from-below) hit so the stats stay
        honest."""
        with self._lock:
            self._insert(
                self._results, key.memory_key, result, self.max_entries
            )
            if promoted:
                self.disk_hits += 1
                self.hits += 1
                self.misses -= 1

    # -- exec'd module artifacts ----------------------------------------

    def get_artifact(self, key: Hashable):
        with self._lock:
            entry = self._artifacts.get(key)
            if entry is None:
                return None
            self._touch(self._artifacts, key)
            return entry.value

    def put_artifact(self, key: Hashable, value) -> None:
        with self._lock:
            self._insert(self._artifacts, key, value, self.max_entries)

    # -- per-unit pass artifacts ----------------------------------------

    def get_unit(self, pass_name: str, key: str):
        """One pass's artifact for one compilation unit, or ``None``."""
        with self._lock:
            entry = self._units.get((pass_name, key))
            if entry is not None:
                self._touch(self._units, (pass_name, key))
                self.unit_hits += 1
                return entry.value
            self.unit_misses += 1
            return None

    def put_unit(self, pass_name: str, key: str, artifact) -> None:
        with self._lock:
            self._insert(
                self._units, (pass_name, key), artifact, self.max_units
            )

    # -- gc -------------------------------------------------------------

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """Drop unit artifacts by pass and/or age, or trim to a byte
        target. ``pass_name`` scopes to one pass's units (other passes'
        units and all results stay intact); without it the age policy
        covers every section and ``max_bytes`` tightens the global
        budget for this one sweep."""
        removed = 0
        reclaimed = 0
        now = time.time()
        # a pass-scoped call with no other policy means "drop the pass"
        drop_all = (
            pass_name is not None
            and max_age_seconds is None
            and max_bytes is None
        )
        with self._lock:
            sections = (
                (self._units,)
                if pass_name is not None
                else (self._results, self._artifacts, self._units)
            )
            for section in sections:
                for key in list(section):
                    entry = section[key]
                    if pass_name is not None and key[0] != pass_name:
                        continue
                    if max_age_seconds is not None:
                        if now - entry.wall < max_age_seconds:
                            continue
                    elif not drop_all:
                        continue
                    del section[key]
                    self._bytes -= entry.size
                    removed += 1
                    reclaimed += entry.size
            if max_bytes is not None:
                if pass_name is not None:
                    # LRU-trim this pass's units to the byte target
                    # (OrderedDict order is LRU-first)
                    scoped = [
                        (key, entry)
                        for key, entry in self._units.items()
                        if key[0] == pass_name
                    ]
                    total = sum(entry.size for _, entry in scoped)
                    for key, entry in scoped:
                        if total <= max_bytes:
                            break
                        del self._units[key]
                        self._bytes -= entry.size
                        total -= entry.size
                        removed += 1
                        reclaimed += entry.size
                else:
                    before_evictions = self.evictions
                    before_bytes = self._bytes
                    budget, self.max_bytes = self.max_bytes, max_bytes
                    self._enforce_budget()
                    self.max_bytes = budget
                    removed += self.evictions - before_evictions
                    reclaimed += before_bytes - self._bytes
        return {"removed": removed, "reclaimed_bytes": reclaimed}

    # -- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._results.clear()
            self._artifacts.clear()
            self._units.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.unit_hits = 0
            self.unit_misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._results),
                "artifacts": len(self._artifacts),
                "units": len(self._units),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "unit_hits": self.unit_hits,
                "unit_misses": self.unit_misses,
                "evictions": self.evictions,
            }
