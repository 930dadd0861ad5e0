"""FMM case-study tests (paper §5.4): kernel recurrences against the
oracle and the "two traversals fully fuse" structure."""

from repro.fusion.fused_ir import GroupCall
from repro.runtime import Heap
from repro.workloads.fmm import (
    FMM_DEFAULT_GLOBALS,
    build_fmm_tree,
    fmm_oracle,
    fmm_program,
    random_particles,
)
from tests.fixtures import compiled, metered


def run(count=256, fused=False, seed=31):
    program = fmm_program()
    heap = Heap(program)
    root = build_fmm_tree(program, heap, random_particles(count, seed))
    interp = metered(program, heap)
    interp.globals.update(FMM_DEFAULT_GLOBALS)
    if fused:
        interp.run_fused(compiled(program).fused, root)
    else:
        interp.run_entry(root)
    return program, root, interp


class TestKernel:
    def test_multipoles_locals_potentials_match_oracle(self):
        program, root, _ = run()
        expected = fmm_oracle(program, root)
        for node in root.walk(program):
            for field, want in expected[id(node)].items():
                assert abs(node.get(field) - want) < 1e-9

    def test_total_mass_conserved(self):
        program, root, _ = run(count=300, seed=5)
        particles = random_particles(300, 5)
        assert abs(root.get("Multipole") - sum(m for _, m in particles)) < 1e-9

    def test_leaf_capacity_respected(self):
        program, root, _ = run(count=100)
        leaves = [n for n in root.walk(program) if n.type_name == "FmmLeaf"]
        # every particle mass is in some leaf slot
        total = sum(
            leaf.get(p) for leaf in leaves for p in ("P0", "P1", "P2", "P3")
        )
        particles = random_particles(100, 31)
        assert abs(total - sum(m for _, m in particles)) < 1e-9


class TestFusion:
    def test_fused_equals_unfused(self):
        program, root_a, _ = run(count=200)
        _, root_b, _ = run(count=200, fused=True)
        assert root_a.snapshot(program) == root_b.snapshot(program)

    def test_downward_passes_fully_fuse(self):
        """Paper: 'Grafter was able to fully fuse the two passes' — the
        locals+potentials unit recurses into itself on both children."""
        fused = compiled(fmm_program()).fused
        key = ("FmmCell::computeLocals", "FmmCell::evaluatePotentials")
        assert key in fused.units
        unit = fused.units[key]
        groups = [i for i in unit.body if isinstance(i, GroupCall)]
        assert len(groups) == 2  # Left and Right
        for group in groups:
            assert len(group.calls) == 2  # both passes together

    def test_upward_pass_cannot_fuse_with_downward(self):
        """computeLocals at a node needs the multipole that
        computeMultipoles finishes *after* recursing — a genuine
        upward/downward conflict, so the passes stay separate."""
        fused = compiled(fmm_program()).fused
        top = fused.entry_groups[0].dispatch["FmmCell"]
        groups = [i for i in top.body if isinstance(i, GroupCall)]
        for group in groups:
            names = {c.method_name for c in group.calls}
            assert not (
                "computeMultipoles" in names and "computeLocals" in names
            )

    def test_visit_reduction_one_of_three_passes(self):
        program, _, unfused = run(count=400)
        _, _, fused = run(count=400, fused=True)
        ratio = fused.node_visits / unfused.node_visits
        assert 0.6 <= ratio <= 0.75  # 3 passes -> 2

    def test_modest_instruction_cost(self):
        """Fig. 13: FMM gains are modest (heavy per-node work, light
        traversal overhead)."""
        _, _, unfused = run(count=400)
        _, _, fused = run(count=400, fused=True)
        ratio = fused.meter.instructions / unfused.meter.instructions
        assert 0.85 <= ratio <= 1.15
