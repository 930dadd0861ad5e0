"""AST case-study tests (paper §5.2): pass semantics, meaning
preservation, fusion behaviour with dynamic truncation."""

import pytest

from repro.runtime import Heap
from repro.workloads.astlang import (
    AstBuilder,
    ast_program,
    check_desugared,
    check_folded,
    check_pruned,
    evaluate_program,
    prog1_spec,
    prog2_spec,
    prog3_spec,
    replicated_functions,
)
from tests.fixtures import compiled, metered

_FUSED_CACHE = {}


def fused_ast_program():
    if "fused" not in _FUSED_CACHE:
        _FUSED_CACHE["fused"] = compiled(ast_program()).fused
    return _FUSED_CACHE["fused"]


def run_unfused(build):
    program = ast_program()
    heap = Heap(program)
    root = build(program, heap)
    before = evaluate_program(program, root)
    interp = metered(program, heap)
    interp.run_entry(root)
    return program, root, interp, before


def run_fused(build):
    program = ast_program()
    fused = fused_ast_program()
    heap = Heap(program)
    root = build(program, heap)
    before = evaluate_program(program, root)
    interp = metered(program, heap)
    interp.run_fused(fused, root)
    return program, root, interp, before


class TestStructure:
    def test_twenty_tree_types(self):
        assert len(ast_program().tree_types) == 20

    def test_six_traversals(self):
        program = ast_program()
        names = {m.name for m in program.all_methods()}
        assert names == {
            "desugarIncr", "desugarDecr", "propagateConstants",
            "replaceVarRefs", "foldConstants", "removeUnusedBranches",
        }

    def test_entry_runs_five_passes(self):
        # replaceVarRefs is the sixth traversal, launched internally by
        # propagateConstants (the paper's two-traversal constant prop)
        program = ast_program()
        assert len(program.entry) == 5


class TestPassSemantics:
    def test_desugar_removes_all_sugar(self):
        program, root, _, _ = run_unfused(
            lambda p, h: replicated_functions(p, h, 4)
        )
        assert check_desugared(program, root)

    def test_fold_leaves_no_constant_operators(self):
        program, root, _, _ = run_unfused(
            lambda p, h: replicated_functions(p, h, 4)
        )
        assert check_folded(program, root)

    def test_branches_pruned(self):
        program, root, _, _ = run_unfused(
            lambda p, h: replicated_functions(p, h, 4)
        )
        assert check_pruned(program, root)

    @pytest.mark.parametrize("build", [
        lambda p, h: replicated_functions(p, h, 5, seed=1),
        lambda p, h: prog1_spec(p, h, num_functions=10),
        lambda p, h: prog2_spec(p, h, num_stmts=60),
        lambda p, h: prog3_spec(p, h, num_functions=4, stmts_per_function=20),
    ])
    def test_optimizations_preserve_meaning(self, build):
        program, root, _, before = run_unfused(build)
        after = evaluate_program(program, root)
        assert before == after

    def test_constant_propagation_enables_folding(self):
        """x = 3; y = x + 4 must end as y = 7 (a literal)."""
        program = ast_program()
        heap = Heap(program)
        builder = AstBuilder(program, heap)
        root = builder.program_node([
            builder.function([
                builder.assign(0, builder.const(3)),
                builder.assign(1, builder.add(builder.var(0), builder.const(4))),
            ])
        ])
        interp = metered(program, heap)
        interp.run_entry(root)
        fn = root.get("Functions").get("Fn")
        second = fn.get("Body").get("Next").get("S")
        rhs = second.get("Rhs")
        assert rhs.type_name == "ConstExpr"
        assert rhs.get("value") == 7

    def test_replace_truncates_at_reassignment(self):
        """x = 3; y = x; x = y; z = x — the first propagation must stop
        at the reassignment of x, so z's x is NOT replaced by 3."""
        program = ast_program()
        heap = Heap(program)
        builder = AstBuilder(program, heap)
        root = builder.program_node([
            builder.function([
                builder.assign(0, builder.const(3)),
                builder.assign(1, builder.var(0)),
                builder.assign(0, builder.var(1)),
                builder.assign(2, builder.var(0)),
            ])
        ])
        before = evaluate_program(program, root)
        interp = metered(program, heap)
        interp.run_entry(root)
        assert evaluate_program(program, root) == before
        assert interp.truncations > 0


class TestFusion:
    def test_fused_equals_unfused(self):
        build = lambda p, h: replicated_functions(p, h, 5, seed=2)
        program, root_a, _, _ = run_unfused(build)
        _, root_b, _, _ = run_fused(build)
        assert root_a.snapshot(program) == root_b.snapshot(program)

    def test_fused_meaning_preserved(self):
        build = lambda p, h: prog3_spec(p, h, num_functions=3,
                                        stmts_per_function=15)
        program, root, _, before = run_fused(build)
        assert evaluate_program(program, root) == before

    def test_visit_reduction_in_paper_band(self):
        """Table 4 reports 8-34% fewer node visits for the AST passes;
        mutation blocks expression-level fusion, so reductions are far
        smaller than the render tree's."""
        build = lambda p, h: replicated_functions(p, h, 8)
        _, _, unfused, _ = run_unfused(build)
        _, _, fused, _ = run_fused(build)
        ratio = fused.node_visits / unfused.node_visits
        assert 0.4 <= ratio <= 0.95

    def test_instruction_overhead_small(self):
        """Fig. 11: fused AST traversals pay a small instruction overhead
        (the paper: 4-15%) from dynamically-truncated traversals' flags
        that keep being passed and checked."""
        build = lambda p, h: replicated_functions(p, h, 8)
        _, _, unfused, _ = run_unfused(build)
        _, _, fused, _ = run_fused(build)
        ratio = fused.meter.instructions / unfused.meter.instructions
        assert 0.9 <= ratio <= 1.2

    def test_truncation_heavy_input_pays_more_overhead(self):
        """Prog2-style inputs (one large statement list, many sentinel
        replaceVarRefs launches) pay the most flag overhead — the
        paper's explanation for the AST overhead. Still bounded."""
        build = lambda p, h: prog2_spec(p, h, num_stmts=80)
        _, _, unfused, _ = run_unfused(build)
        _, _, fused, _ = run_fused(build)
        ratio = fused.meter.instructions / unfused.meter.instructions
        assert 1.0 <= ratio <= 1.45

    def test_prog_configs_have_distinct_shapes(self):
        """Table 4: Prog1 (many small fns) fuses more than Prog2 (one
        large fn, where in-function statement lists dominate)."""
        program = ast_program()

        def ratio_for(build):
            _, _, unfused, _ = run_unfused(build)
            _, _, fused, _ = run_fused(build)
            return fused.node_visits / unfused.node_visits

        r1 = ratio_for(lambda p, h: prog1_spec(p, h, num_functions=20))
        r2 = ratio_for(lambda p, h: prog2_spec(p, h, num_stmts=120))
        assert r1 < 1.0 and r2 < 1.0
