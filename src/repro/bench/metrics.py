"""Measurement of one traversal execution."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cachesim import paper_hierarchy
from repro.fusion.fused_ir import FusedProgram
from repro.interp import Interpreter, ObjectTreeView
from repro.ir.program import Program
from repro.runtime import ExecStats, Heap, Node


@dataclass
class Measurement:
    """The paper's four quantities for one run (plus raw extras)."""

    node_visits: int
    instructions: int
    misses: dict[str, int]
    modeled_cycles: int
    wall_seconds: float
    tree_bytes: int
    truncations: int = 0

    def normalized_to(self, baseline: "Measurement") -> dict[str, float]:
        """fused/baseline ratios, the form every figure reports."""

        def ratio(a, b):
            return a / b if b else float("nan")

        result = {
            "runtime": ratio(self.modeled_cycles, baseline.modeled_cycles),
            "instructions": ratio(self.instructions, baseline.instructions),
            "node_visits": ratio(self.node_visits, baseline.node_visits),
            "wall": ratio(self.wall_seconds, baseline.wall_seconds),
        }
        for level in ("L1", "L2", "L3"):
            if level in self.misses and level in baseline.misses:
                result[f"{level}_misses"] = ratio(
                    self.misses[level], baseline.misses[level]
                )
        return result


def measure_run(
    program: Program,
    build_tree: Callable[[Program, Heap], Node],
    globals_map: Optional[dict] = None,
    fused: Optional[FusedProgram] = None,
    cache_scale: Optional[int] = None,
) -> Measurement:
    """Build a fresh tree, execute (fused or unfused) on the metered
    interpreter, return metrics.

    ``cache_scale`` enables the cache simulator with the paper geometry
    divided by that factor (see :func:`repro.cachesim.paper_hierarchy`);
    ``None`` disables simulation for fast scaling runs.
    """
    heap = Heap(program)
    root = build_tree(program, heap)
    cache = paper_hierarchy(scale=cache_scale) if cache_scale else None
    stats = ExecStats(cache=cache)
    machine = Interpreter(program, ObjectTreeView(program, heap), meter=stats)
    machine.globals.update(globals_map or {})
    start = time.perf_counter()
    if fused is not None:
        machine.run_fused(fused, root)
    else:
        machine.run_entry(root)
    elapsed = time.perf_counter() - start
    return Measurement(
        node_visits=machine.node_visits,
        instructions=stats.instructions,
        misses=stats.miss_counts(),
        modeled_cycles=stats.modeled_cycles(),
        wall_seconds=elapsed,
        tree_bytes=heap.footprint_bytes,
        truncations=machine.truncations,
    )
