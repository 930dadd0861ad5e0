"""The in-process tier: one byte-budgeted LRU over three sections.

One section per artifact kind — whole compile results (``"result"``),
exec'd module artifacts (``"module"``, which only this tier holds), and
per-unit pass artifacts (``"unit"``) — all sharing **one byte budget**
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
from typing import Optional

from repro.storage.base import RESULT, UNIT, counter_name

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


_COUNTERS = (
    "hits", "misses", "disk_hits", "unit_hits", "unit_misses", "evictions",
)


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
        self._sections: dict[str, OrderedDict] = {
            RESULT: OrderedDict(),
            "module": OrderedDict(),
            UNIT: OrderedDict(),
        }
        self._bytes = 0
        self._clock = 0
        self.counts = dict.fromkeys(_COUNTERS, 0)

    # -- internals ------------------------------------------------------

    def _touch(self, section: OrderedDict, key) -> None:
        self._clock += 1
        section[key].stamp = self._clock
        section.move_to_end(key)

    def _insert(self, kind: str, key, value) -> None:
        section = self._sections[kind]
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
        cap = self.max_units if kind == UNIT else self.max_entries
        while len(section) > cap:
            self._pop_lru(section)
        self._enforce_budget()

    def _pop_lru(self, section: OrderedDict) -> None:
        _, entry = section.popitem(last=False)
        self._bytes -= entry.size
        self.counts["evictions"] += 1

    def _enforce_budget(self) -> None:
        """Evict the globally least-recently-used entry (any section)
        until the tier fits the byte budget."""
        while self._bytes > self.max_bytes:
            victim_section = None
            victim_stamp = None
            for section in self._sections.values():
                if not section:
                    continue
                head = next(iter(section.values()))
                if victim_stamp is None or head.stamp < victim_stamp:
                    victim_stamp = head.stamp
                    victim_section = section
            if victim_section is None:
                break
            self._pop_lru(victim_section)

    # -- the Tier face --------------------------------------------------

    def fetch(self, kind: str, key):
        """``(artifact, None)`` or ``None``: memory holds objects, not
        payloads."""
        with self._lock:
            section = self._sections[kind]
            entry = section.get(key)
            if kind != "module":  # module lookups are not counted
                outcome = "misses" if entry is None else "hits"
                self.counts[counter_name(kind, outcome)] += 1
            if entry is None:
                return None
            self._touch(section, key)
            return entry.value, None

    def store(
        self, kind: str, key, artifact, blob: Optional[bytes] = None,
        promoted: bool = False,
    ) -> None:
        """Adopt one artifact (``blob`` is unused: memory keeps the
        object). ``promoted`` marks an artifact read through from a
        lower tier, which converts this lookup's recorded miss into a
        hit so the stats stay honest: a result's into a ``disk_hits``
        (served-from-below) hit, a unit's into a ``unit_hits`` one."""
        with self._lock:
            self._insert(kind, key, artifact)
            if promoted:
                if kind == RESULT:
                    self.counts["disk_hits"] += 1
                self.counts[counter_name(kind, "hits")] += 1
                self.counts[counter_name(kind, "misses")] -= 1

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
            units = self._sections[UNIT]
            sections = (
                (units,)
                if pass_name is not None
                else tuple(self._sections.values())
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
                        for key, entry in units.items()
                        if key[0] == pass_name
                    ]
                    total = sum(entry.size for _, entry in scoped)
                    for key, entry in scoped:
                        if total <= max_bytes:
                            break
                        del units[key]
                        self._bytes -= entry.size
                        total -= entry.size
                        removed += 1
                        reclaimed += entry.size
                else:
                    before_evictions = self.counts["evictions"]
                    before_bytes = self._bytes
                    budget, self.max_bytes = self.max_bytes, max_bytes
                    self._enforce_budget()
                    self.max_bytes = budget
                    removed += self.counts["evictions"] - before_evictions
                    reclaimed += before_bytes - self._bytes
        return {"removed": removed, "reclaimed_bytes": reclaimed}

    # -- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sections[RESULT])

    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            for section in self._sections.values():
                section.clear()
            self._bytes = 0
            self.counts = dict.fromkeys(_COUNTERS, 0)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._sections[RESULT]),
                "artifacts": len(self._sections["module"]),
                "units": len(self._sections[UNIT]),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                **self.counts,
            }
