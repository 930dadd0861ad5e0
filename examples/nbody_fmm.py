"""N-body far-field evaluation: the paper's §5.4 FMM case study.

Distributes particles in a 1D domain, builds the spatial tree, and runs
the multipole / local-expansion / potential traversals. The two downward
passes fuse into one; the upward pass provably cannot join them (its
output feeds the fused pair at every node).

The FMM program arrives as a :class:`repro.Workload` bundle measured
through :func:`repro.bench.runner.compare_workload` and compiled by a
:class:`repro.Session`.

Run:  python examples/nbody_fmm.py [particles]
"""

import os
import sys

import repro
from repro.bench.runner import compare_workload
from repro.interp import Interpreter, ObjectTreeView
from repro.runtime import Heap
from repro.workloads.fmm import fmm_oracle, fmm_workload


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    workload = fmm_workload()
    particles = workload.spec(particles=count)

    with repro.Session(cache_dir=os.environ.get("REPRO_CACHE_DIR")) as session:
        compiled = session.compile(workload, emit=False)
        options = session.options
    program, fused_program = compiled.result.program, compiled.fused

    comparison = compare_workload(
        "nbody-fmm", workload, particles, cache_scale=64, options=options
    )
    unfused, fused = comparison.unfused, comparison.fused

    print(f"{count} particles, tree of "
          f"{unfused.tree_bytes >> 10}KB")
    print("\nfused traversal sets:")
    for key in sorted(fused_program.units):
        print("  " + " + ".join(key))

    print(f"\n{'':>14}  {'unfused':>12}  {'fused':>12}  {'ratio':>6}")
    for label, a, b in [
        ("node visits", unfused.node_visits, fused.node_visits),
        ("instructions", unfused.instructions, fused.instructions),
        ("L2 misses", unfused.misses["L2"], fused.misses["L2"]),
        ("cycles", unfused.modeled_cycles, fused.modeled_cycles),
    ]:
        print(f"{label:>14}  {a:>12}  {b:>12}  {b / a:>6.2f}")

    # correctness: total potential matches the reference recurrences
    heap = Heap(program)
    root = workload.build_tree(program, heap, particles)
    interp = Interpreter(program, ObjectTreeView(program, heap))
    interp.globals.update(workload.globals_map)
    interp.run_fused(fused_program, root)
    expected = fmm_oracle(program, root)
    want = expected[id(root)]["Potential"]
    got = root.get("Potential")
    print(f"\ntotal potential = {got:.6f} (reference {want:.6f})")
    assert abs(got - want) < 1e-6


if __name__ == "__main__":
    main()
