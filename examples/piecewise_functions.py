"""Solving with piecewise functions: the paper's §5.3 case study.

Represents a function as a kd-tree of cubic segments and evaluates the
three Table 6 equations, each a different schedule of traversals. Shows
why automatic fusion matters here: every equation gets its own fused
traversal set, which nobody would write by hand.

Each equation becomes its own :class:`repro.Workload` (same classes,
different entry schedule) compiled and measured through one
:class:`repro.Session`.

Run:  python examples/piecewise_functions.py
"""

import os

import repro
from repro.bench.runner import compare_workload
from repro.interp import Interpreter, ObjectTreeView
from repro.runtime import Heap
from repro.workloads.kdtree import (
    EQ1_SCHEDULE,
    EQ2_SCHEDULE,
    EQ3_SCHEDULE,
    PiecewiseOracle,
    kdtree_workload,
    leaf_segments,
)

EQUATIONS = [
    ("x^4 (f''(x))^2 + sum_i x^i", EQ1_SCHEDULE),
    ("f^(5)(x) at x=0", EQ2_SCHEDULE),
    ("integral x^3 (f+.5)^2 u(0)", EQ3_SCHEDULE),
]


def main():
    depth = 8
    print(f"piecewise function: balanced kd-tree, {2**depth} cubic segments\n")
    session = repro.Session(cache_dir=os.environ.get("REPRO_CACHE_DIR"))
    for label, schedule in EQUATIONS:
        workload = kdtree_workload(schedule, name=label)
        compiled = session.compile(workload, emit=False)
        program, fused = compiled.result.program, compiled.fused

        spec = workload.spec(depth=depth)
        comparison = compare_workload(
            label, workload, spec, options=session.options
        )
        unfused, fused_m = comparison.unfused, comparison.fused

        # run once more on the same input to pull out the numeric
        # answer + oracle check
        heap = Heap(program)
        function = workload.build_tree(program, heap, spec)
        oracle = PiecewiseOracle(leaf_segments(program, function))
        expected = oracle.apply_schedule(schedule)
        interp = Interpreter(program, ObjectTreeView(program, heap))
        interp.globals.update(workload.globals_map)
        interp.run_fused(fused, function)

        print(f"equation: {label}")
        print(f"  schedule: {len(schedule)} traversals "
              f"({', '.join(m for m, _ in schedule[:4])}...)")
        print(f"  fused into {fused.unit_count} traversal functions")
        print(f"  node visits {unfused.node_visits} -> {fused_m.node_visits} "
              f"({fused_m.node_visits / unfused.node_visits:.2f}x)")
        if "integral" in expected:
            print(f"  integral = {function.get('Integral'):.6f} "
                  f"(oracle {expected['integral']:.6f})")
        if "value" in expected:
            print(f"  value    = {function.get('Value'):.6f} "
                  f"(oracle {expected['value']:.6f})")
        print()


if __name__ == "__main__":
    main()
