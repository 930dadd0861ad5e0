"""Per-operation kd-tree tests: each Table 5 traversal in isolation
against closed-form expectations."""

import pytest

from repro.runtime import Heap
from repro.workloads.kdtree import (
    KD_DEFAULT_GLOBALS,
    build_balanced_tree,
    leaf_segments,
)
from repro.workloads.kdtree.equations import equation_program
from tests.fixtures import metered


def run_ops(schedule, depth=3, name=None):
    program = equation_program(schedule, name or f"op-{schedule[0][0]}")
    heap = Heap(program)
    function = build_balanced_tree(program, heap, depth=depth)
    before = leaf_segments(program, function)
    interp = metered(program, heap)
    interp.globals.update(KD_DEFAULT_GLOBALS)
    interp.run_entry(function)
    return program, function, before


class TestIndividualOperations:
    def test_scale_multiplies_all_coefficients(self):
        program, function, before = run_ops([("scale", (3.0,))])
        for (_, _, got), (_, _, orig) in zip(
            leaf_segments(program, function), before
        ):
            assert got == pytest.approx(tuple(3.0 * c for c in orig))

    def test_add_shifts_constant_term_only(self):
        program, function, before = run_ops([("addC", (2.5,))])
        for (_, _, got), (_, _, orig) in zip(
            leaf_segments(program, function), before
        ):
            assert got[0] == pytest.approx(orig[0] + 2.5)
            assert got[1:] == pytest.approx(orig[1:])

    def test_differentiate_is_polynomial_derivative(self):
        program, function, before = run_ops([("differentiate", ())])
        for (_, _, got), (_, _, orig) in zip(
            leaf_segments(program, function), before
        ):
            assert got == pytest.approx(
                (orig[1], 2 * orig[2], 3 * orig[3], 0.0)
            )

    def test_square_matches_truncated_product(self):
        program, function, before = run_ops([("square", ())])
        for (_, _, got), (_, _, c) in zip(
            leaf_segments(program, function), before
        ):
            assert got == pytest.approx(
                (
                    c[0] * c[0],
                    2 * c[0] * c[1],
                    2 * c[0] * c[2] + c[1] * c[1],
                    2 * c[0] * c[3] + 2 * c[1] * c[2],
                )
            )

    def test_derivative_of_integral_consistency(self):
        """d/dx then integrate over the full domain telescopes: the
        integral of f' over [lo,hi] equals f(hi) - f(lo) per segment."""
        program, function, before = run_ops(
            [("differentiate", ()), ("integrate", (0.0, 1024.0))]
        )
        expected = 0.0
        for lo, hi, c in before:
            def poly(x):
                return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

            expected += poly(hi) - poly(lo)
        assert function.get("Integral") == pytest.approx(expected, rel=1e-9)

    def test_add_x_range_outside_leaves_untouched(self):
        program, function, before = run_ops(
            [
                ("splitForRange", (0.0, 512.0)),
                ("addXRange", (0.0, 512.0)),
            ],
            name="addx-partial",
        )
        for lo, hi, got in leaf_segments(program, function):
            matching = next(
                (c for (olo, ohi, c) in before if olo <= lo and ohi >= hi),
                None,
            )
            assert matching is not None
            if hi <= 512.0:
                assert got[1] == pytest.approx(matching[1] + 1.0)
            else:
                assert got[1] == pytest.approx(matching[1])

    def test_projection_agrees_with_direct_evaluation(self):
        program, function, before = run_ops(
            [("project", (700.0,))], name="proj-700"
        )
        lo, hi, c = next(
            (s for s in before if s[0] <= 700.0 <= s[1])
        )
        expected = c[0] + 700.0 * (c[1] + 700.0 * (c[2] + 700.0 * c[3]))
        assert function.get("Value") == pytest.approx(expected)

    def test_mult_x_range_shifts_coefficients(self):
        program, function, before = run_ops(
            [("multXRange", (0.0, 1024.0))], name="multx-full"
        )
        for (_, _, got), (_, _, c) in zip(
            leaf_segments(program, function), before
        ):
            assert got == pytest.approx((0.0, c[0], c[1], c[2]))
