"""Runtime: tree nodes, heap layout, values, execution metrics.

The reproduction's analogue of the paper's compiled binaries + hardware
counters. Both the original (unfused) program and the synthesized fused
traversals run on the same interpreter (:mod:`repro.interp`) metered by
the same instruction cost model and the same simulated memory system,
so the fused/unfused ratios reported by the benchmark harness are
apples-to-apples.
"""

from repro.runtime.values import ObjectValue, default_value
from repro.runtime.heap import Heap, TypeLayout
from repro.runtime.node import Node
from repro.runtime.stats import CostModel, ExecStats, LatencySeries

__all__ = [
    "ObjectValue",
    "default_value",
    "Heap",
    "TypeLayout",
    "Node",
    "CostModel",
    "ExecStats",
    "LatencySeries",
]
