"""Execution metrics and the instruction cost model.

The paper measures four quantities per experiment (§5): node visits,
instructions executed, cache misses and runtime. Here:

* **node visits** — incremented once per traversal-function invocation on
  a node; a fused function counts once however many member traversals it
  carries (that is the point of fusion).
* **instructions** — a deterministic cost model over executed IR
  operations. The *same* table prices unfused and fused code, and the
  fused overheads the paper describes (active-flag checks, call-flag
  packing, stub dispatch) are charged explicitly, so the "instruction
  overhead" effect is reproduced rather than assumed.
* **cache misses** — from :mod:`repro.cachesim` over the address trace.
* **runtime** — modeled cycles: instructions + miss penalties, plus
  wall-clock seconds reported separately for reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cachesim.hierarchy import CacheHierarchy


@dataclass(frozen=True)
class CostModel:
    """Instruction-cost table (units are nominal 'instructions')."""

    call_overhead: int = 4        # frame setup + branch + ret
    per_argument: int = 1
    virtual_dispatch: int = 3     # vtable load + indirect branch
    flag_check: int = 1           # `if (active_flags & mask)`
    call_flag_pack: int = 2       # shift+or per member when forming call_flags
    return_stmt: int = 1
    new_node: int = 8             # allocation + header init
    delete_node: int = 4
    branch: int = 1               # if-statement overhead beyond its condition
    null_check: int = 1


@dataclass
class ExecStats:
    """Counters for one metered execution: instructions charged and the
    address trace. Node visits and truncations are counted by the
    interpreter itself (:class:`repro.interp.Interpreter`)."""

    instructions: int = 0
    field_reads: int = 0
    field_writes: int = 0
    cache: Optional[CacheHierarchy] = None
    cost: CostModel = field(default_factory=CostModel)

    # -- memory traffic ----------------------------------------------------

    def read(self, address: int) -> None:
        self.field_reads += 1
        if self.cache is not None:
            self.cache.access(address)

    def write(self, address: int) -> None:
        self.field_writes += 1
        if self.cache is not None:
            self.cache.access(address)

    # -- derived metrics -----------------------------------------------------

    def miss_counts(self) -> dict[str, int]:
        if self.cache is None:
            return {}
        return self.cache.miss_counts()

    def modeled_cycles(self) -> int:
        """Runtime metric: instruction count plus cache-miss penalties."""
        cycles = self.instructions
        if self.cache is not None:
            cycles += self.cache.penalty_cycles()
        return cycles


@dataclass
class LatencySeries:
    """Latency samples with percentile summaries.

    The service's batch executor records one sample per executed tree
    (and per shard) and reports p50/p99 — the quantities a production
    traffic dashboard watches. Percentiles interpolate linearly
    between the two nearest order statistics (the numpy default), so
    p50 of an even-count series is the midpoint of the middle pair and
    summaries vary smoothly as samples arrive — the earlier
    nearest-rank method jumped a whole sample at a time and pinned
    every percentile of a two-sample series to its extremes.
    """

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    def merge(self, other: "LatencySeries") -> None:
        self.samples.extend(other.samples)

    def percentile(self, p: float) -> float:
        """Linearly interpolated percentile, ``p`` in [0, 100]; 0.0
        when empty. ``p=0`` is the minimum, ``p=100`` the maximum, and
        a single-sample series answers that sample for every ``p``."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        p = min(max(p, 0.0), 100.0)
        rank = (len(ordered) - 1) * p / 100.0
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = rank - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def summary(self) -> dict[str, float]:
        if not self.samples:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                    "max": 0.0}
        return {
            "count": len(self.samples),
            "mean": sum(self.samples) / len(self.samples),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": max(self.samples),
        }
