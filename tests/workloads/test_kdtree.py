"""kd-tree case-study tests (paper §5.3): traversal algebra against the
piecewise oracle, splitting, truncation, and fusion shape."""

import pytest

from repro.pipeline.stages import plan_and_synthesize
from repro.runtime import Heap
from repro.workloads.kdtree import (
    EQ1_SCHEDULE,
    EQ2_SCHEDULE,
    EQ3_SCHEDULE,
    KD_DEFAULT_GLOBALS,
    PiecewiseOracle,
    build_balanced_tree,
    equation_program,
    leaf_segments,
)
from tests.fixtures import metered

_SCHEDULES = {
    "eq1": EQ1_SCHEDULE,
    "eq2": EQ2_SCHEDULE,
    "eq3": EQ3_SCHEDULE,
}


def run_schedule(name, depth=5, fused=False):
    schedule = _SCHEDULES[name]
    program = equation_program(schedule, name)
    heap = Heap(program)
    function = build_balanced_tree(program, heap, depth=depth)
    before = leaf_segments(program, function)
    interp = metered(program, heap)
    interp.globals.update(KD_DEFAULT_GLOBALS)
    if fused:
        interp.run_fused(plan_and_synthesize(program), function)
    else:
        interp.run_entry(function)
    return program, function, interp, before


def segments_close(got, want, tol=1e-6):
    if len(got) != len(want):
        return False
    for (g_lo, g_hi, g_c), (w_lo, w_hi, w_c) in zip(got, want):
        if abs(g_lo - w_lo) > 1e-9 or abs(g_hi - w_hi) > 1e-9:
            return False
        if any(abs(a - b) > tol for a, b in zip(g_c, w_c)):
            return False
    return True


class TestTraversalAlgebra:
    @pytest.mark.parametrize("name", ["eq1", "eq2", "eq3"])
    def test_unfused_matches_oracle_segments(self, name):
        program, function, _, before = run_schedule(name)
        oracle = PiecewiseOracle(before)
        oracle.apply_schedule(_SCHEDULES[name])
        assert segments_close(leaf_segments(program, function), oracle.segments)

    def test_integral_matches_oracle(self):
        program, function, _, before = run_schedule("eq3")
        oracle = PiecewiseOracle(before)
        results = oracle.apply_schedule(EQ3_SCHEDULE)
        scale = max(1.0, abs(results["integral"]))
        assert abs(function.get("Integral") - results["integral"]) < 1e-6 * scale

    def test_projection_matches_oracle(self):
        program, function, _, before = run_schedule("eq2")
        oracle = PiecewiseOracle(before)
        results = oracle.apply_schedule(EQ2_SCHEDULE)
        assert abs(function.get("Value") - results["value"]) < 1e-9

    def test_split_creates_boundary_aligned_leaves(self):
        program, function, _, before = run_schedule("eq3")
        # eq3 splits at x=512 over [0,1024]: with a power-of-two grid the
        # boundary is already aligned, so leaf count is unchanged; check
        # instead with an unaligned range on a fresh program
        from repro.workloads.kdtree.equations import equation_program as eq

        schedule = [("splitForRange", (100.0, 900.0))]
        program2 = eq(schedule, "splitonly")
        heap = Heap(program2)
        f2 = build_balanced_tree(program2, heap, depth=3)
        n_before = len(leaf_segments(program2, f2))
        interp = metered(program2, heap)
        interp.globals.update(KD_DEFAULT_GLOBALS)
        interp.run_entry(f2)
        segments = leaf_segments(program2, f2)
        assert len(segments) > n_before
        # segments tile the domain exactly
        for (a_lo, a_hi, _), (b_lo, b_hi, _) in zip(segments, segments[1:]):
            assert abs(a_hi - b_lo) < 1e-9

    def test_projection_truncates_subtrees(self):
        depth = 7
        _, _, interp, _ = run_schedule("eq2", depth=depth)
        # project() returns immediately on the off-path sibling at every
        # level: one truncation per level of the tree
        assert interp.truncations >= depth - 1
        # ...so the projection visits a root-to-leaf path, not the tree:
        # the five differentiate passes dominate the visit count
        full_traversal_visits = 5 * (2 ** (depth + 1))
        assert interp.node_visits < full_traversal_visits * 1.2


class TestFusion:
    @pytest.mark.parametrize("name", ["eq1", "eq2", "eq3"])
    def test_fused_equals_unfused(self, name):
        program, f_unfused, _, _ = run_schedule(name)
        _, f_fused, _, _ = run_schedule(name, fused=True)
        assert f_unfused.snapshot(program) == f_fused.snapshot(program)

    def test_eq1_visit_reduction_matches_paper(self):
        """Fig. 12 / Table 6: eq1's fused traversals visit ~0.17x the
        nodes (we allow 0.15-0.35 at our scales)."""
        _, _, unfused, _ = run_schedule("eq1", depth=7)
        _, _, fused, _ = run_schedule("eq1", depth=7, fused=True)
        ratio = fused.node_visits / unfused.node_visits
        assert 0.1 <= ratio <= 0.35

    def test_all_equations_reduce_visits(self):
        """Table 6: every equation's schedule fuses substantially."""
        for name in ("eq1", "eq2", "eq3"):
            _, _, unfused, _ = run_schedule(name, depth=6)
            _, _, fused, _ = run_schedule(name, depth=6, fused=True)
            ratio = fused.node_visits / unfused.node_visits
            assert ratio < 0.6, name

    def test_different_schedules_produce_different_fusions(self):
        """§5.3's motivation: each equation needs its own fusion — the
        synthesized unit sets differ."""
        units = {}
        for name in ("eq1", "eq2", "eq3"):
            program = equation_program(_SCHEDULES[name], name)
            units[name] = set(plan_and_synthesize(program).units)
        assert units["eq1"] != units["eq2"]
        assert units["eq2"] != units["eq3"]
