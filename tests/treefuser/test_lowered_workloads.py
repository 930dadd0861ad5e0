"""TreeFuser lowering over the full case studies (regression coverage
for variant-local renaming: variants of one traversal share a flat scope
after lowering, so their locals must not collide)."""

from repro.pipeline.stages import plan_and_synthesize
from repro.runtime import Heap
from repro.treefuser import lower_program, lower_tree
from tests.fixtures import metered


class TestLoweredAst:
    """The AST passes declare same-named locals (`vid`, `val`, `v`) in
    several type variants — the collision case that motivated renaming."""

    def _lowered(self):
        from repro.workloads.astlang import ast_program
        from repro.workloads.astlang.programs import replicated_functions

        program = ast_program()
        lowered = lower_program(program)

        def build():
            src_heap = Heap(program)
            het = replicated_functions(program, src_heap, 3)
            heap = Heap(lowered.program)
            return heap, lower_tree(program, lowered, heap, het)

        return program, lowered, build

    def test_lowering_renames_colliding_locals(self):
        _, lowered, _ = self._lowered()
        desugar = lowered.program.tree_types["TNode"].methods["desugarDecr"]
        from repro.ir.stmts import LocalDef, walk_stmts

        names = [
            s.name for s in walk_stmts(desugar.body) if isinstance(s, LocalDef)
        ]
        assert len(names) == len(set(names)), "locals still collide"
        assert any("__v" in name for name in names)

    def test_lowered_unfused_runs_all_passes(self):
        program, lowered, build = self._lowered()
        heap, root = build()
        interp = metered(lowered.program, heap)
        interp.run_entry(root)
        # desugaring happened: no nodes tagged Incr/Decr remain
        incr_tag = lowered.tag_of("IncrExpr")
        decr_tag = lowered.tag_of("DecrExpr")
        tags = [n.get("tag") for n in root.walk(lowered.program)]
        assert incr_tag not in tags and decr_tag not in tags

    def test_lowered_fused_matches_unfused(self):
        program, lowered, build = self._lowered()
        heap_a, root_a = build()
        interp_a = metered(lowered.program, heap_a)
        interp_a.run_entry(root_a)
        fused = plan_and_synthesize(lowered.program)
        heap_b, root_b = build()
        interp_b = metered(lowered.program, heap_b)
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(lowered.program) == root_b.snapshot(
            lowered.program
        )
        assert interp_b.node_visits < interp_a.node_visits


class TestLoweredKdTree:
    def test_kdtree_eq1_lowers_and_fuses(self):
        from repro.workloads.kdtree import (
            EQ1_SCHEDULE,
            KD_DEFAULT_GLOBALS,
            build_balanced_tree,
            equation_program,
        )

        program = equation_program(EQ1_SCHEDULE, "tf-eq1")
        lowered = lower_program(program)

        def build():
            src_heap = Heap(program)
            het = build_balanced_tree(program, src_heap, depth=4)
            heap = Heap(lowered.program)
            return heap, lower_tree(program, lowered, heap, het)

        heap_a, root_a = build()
        interp_a = metered(lowered.program, heap_a)
        interp_a.globals.update(KD_DEFAULT_GLOBALS)
        interp_a.run_entry(root_a)
        fused = plan_and_synthesize(lowered.program)
        heap_b, root_b = build()
        interp_b = metered(lowered.program, heap_b)
        interp_b.globals.update(KD_DEFAULT_GLOBALS)
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(lowered.program) == root_b.snapshot(
            lowered.program
        )


class TestLoweredFmm:
    def test_fmm_lowers_and_fuses(self):
        from repro.workloads.fmm import (
            FMM_DEFAULT_GLOBALS,
            build_fmm_tree,
            fmm_program,
            random_particles,
        )

        program = fmm_program()
        lowered = lower_program(program)
        particles = random_particles(64)

        def build():
            src_heap = Heap(program)
            het = build_fmm_tree(program, src_heap, particles)
            heap = Heap(lowered.program)
            return heap, lower_tree(program, lowered, heap, het)

        heap_a, root_a = build()
        interp_a = metered(lowered.program, heap_a)
        interp_a.globals.update(FMM_DEFAULT_GLOBALS)
        interp_a.run_entry(root_a)
        fused = plan_and_synthesize(lowered.program)
        heap_b, root_b = build()
        interp_b = metered(lowered.program, heap_b)
        interp_b.globals.update(FMM_DEFAULT_GLOBALS)
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(lowered.program) == root_b.snapshot(
            lowered.program
        )
