"""Render-tree case study tests: structure, oracle correctness, fusion
effectiveness, and TreeFuser comparison (paper §5.1)."""

import pytest

from repro.pipeline.stages import plan_and_synthesize
from repro.runtime import ExecStats, Heap
from repro.treefuser import lower_program, lower_tree
from repro.workloads.render import (
    build_document,
    doc1_spec,
    doc2_spec,
    doc3_spec,
    layout_oracle,
    render_program,
    replicated_pages_spec,
)
from repro.workloads.render.schema import DEFAULT_GLOBALS
from tests.fixtures import metered

PASSES = [
    "resolveFlexWidths",
    "resolveRelativeWidths",
    "setFontStyle",
    "computeHeights",
    "computePositions",
]


def run_unfused(spec):
    program = render_program()
    heap = Heap(program)
    doc = build_document(program, heap, spec)
    interp = metered(program, heap)
    interp.globals.update(DEFAULT_GLOBALS)
    interp.run_entry(doc)
    return program, doc, interp


def run_fused(spec):
    program = render_program()
    fused = plan_and_synthesize(program)
    heap = Heap(program)
    doc = build_document(program, heap, spec)
    interp = metered(program, heap)
    interp.globals.update(DEFAULT_GLOBALS)
    interp.run_fused(fused, doc)
    return program, doc, interp


class TestStructure:
    def test_seventeen_tree_types(self):
        program = render_program()
        assert len(program.tree_types) == 17

    def test_five_passes_in_entry(self):
        program = render_program()
        assert [c.method_name for c in program.entry] == PASSES

    def test_many_simple_functions(self):
        """Paper §5.1: the Grafter version spreads the passes over ~55
        small per-type functions (vs one monolith per traversal in
        TreeFuser)."""
        program = render_program()
        total = sum(1 for _ in program.all_methods())
        non_empty = sum(1 for m in program.all_methods() if m.body)
        assert total >= 55
        assert non_empty >= 45

    def test_document_sizes(self):
        program = render_program()
        heap = Heap(program)
        doc = build_document(program, heap, replicated_pages_spec(8))
        per_page = doc.count_nodes(program) / 8
        assert 15 <= per_page <= 50


class TestOracle:
    @pytest.mark.parametrize("spec_fn", [
        lambda: replicated_pages_spec(3),
        lambda: doc1_spec(num_pages=6),
        lambda: doc2_spec(rows=12),
        lambda: doc3_spec(num_pages=6),
    ])
    def test_unfused_matches_oracle(self, spec_fn):
        program, doc, _ = run_unfused(spec_fn())
        oracle = layout_oracle(program, doc)
        checked = 0
        for node in doc.walk(program):
            for field, expected in oracle.expected_for(node).items():
                assert node.get(field) == expected, (
                    f"{node.type_name}.{field}: got {node.get(field)}, "
                    f"want {expected}"
                )
                checked += 1
        assert checked > 50

    def test_fused_matches_oracle(self):
        program, doc, _ = run_fused(replicated_pages_spec(3))
        oracle = layout_oracle(program, doc)
        for node in doc.walk(program):
            for field, expected in oracle.expected_for(node).items():
                assert node.get(field) == expected

    def test_positions_are_monotonic_down_the_page(self):
        program, doc, _ = run_unfused(replicated_pages_spec(2))
        pages = [n for n in doc.walk(program) if n.type_name == "Page"]
        assert pages[0].get("PosY") < pages[1].get("PosY")


class TestFusionEffectiveness:
    def test_visit_reduction_matches_paper_band(self):
        """Fig. 9a: Grafter cuts render-tree node visits by ~60%."""
        spec = replicated_pages_spec(6)
        _, _, unfused = run_unfused(spec)
        _, _, fused = run_fused(spec)
        ratio = fused.node_visits / unfused.node_visits
        assert 0.2 <= ratio <= 0.5

    def test_no_instruction_overhead(self):
        """Fig. 9a: Grafter shows virtually no instruction overhead."""
        spec = replicated_pages_spec(6)
        _, _, unfused = run_unfused(spec)
        _, _, fused = run_fused(spec)
        ratio = fused.meter.instructions / unfused.meter.instructions
        assert ratio <= 1.05

    def test_fused_equals_unfused_state(self):
        spec = doc3_spec(num_pages=4)
        program, doc_a, _ = run_unfused(spec)
        _, doc_b, _ = run_fused(spec)
        assert doc_a.snapshot(program) == doc_b.snapshot(program)

    def test_cache_misses_drop_for_large_documents(self):
        """Fig. 9a: fusion cuts cache misses once the tree exceeds the
        cache (scaled geometry keeps the experiment fast)."""
        from repro.cachesim import paper_hierarchy

        spec = replicated_pages_spec(48)
        program = render_program()
        heap = Heap(program)
        doc = build_document(program, heap, spec)
        stats = ExecStats(cache=paper_hierarchy(scale=64))
        interp = metered(program, heap, stats)
        interp.globals.update(DEFAULT_GLOBALS)
        interp.run_entry(doc)
        unfused_l2 = stats.miss_counts()["L2"]

        fused = plan_and_synthesize(program)
        heap2 = Heap(program)
        doc2 = build_document(program, heap2, spec)
        stats2 = ExecStats(cache=paper_hierarchy(scale=64))
        interp2 = metered(program, heap2, stats2)
        interp2.globals.update(DEFAULT_GLOBALS)
        interp2.run_fused(fused, doc2)
        fused_l2 = stats2.miss_counts()["L2"]
        assert fused_l2 < unfused_l2 * 0.7


class TestTreeFuserComparison:
    def test_baselines_do_same_work(self):
        """Paper §5.1: both baselines have the same absolute node visits."""
        spec = replicated_pages_spec(3)
        program, _, het = run_unfused(spec)
        lowered = lower_program(program)
        heap = Heap(lowered.program)
        src_heap = Heap(program)
        twin = lower_tree(
            program, lowered, heap, build_document(program, src_heap, spec)
        )
        interp = metered(lowered.program, heap)
        interp.globals.update(DEFAULT_GLOBALS)
        interp.run_entry(twin)
        assert interp.node_visits == het.node_visits

    def test_treefuser_baseline_substantially_slower(self):
        """Paper §5.1: Grafter's baseline is already substantially faster
        than TreeFuser's (tagged-union conditionals at every node)."""
        spec = replicated_pages_spec(3)
        program, _, het = run_unfused(spec)
        lowered = lower_program(program)
        heap = Heap(lowered.program)
        twin = lower_tree(
            program, lowered, heap, build_document(program, Heap(program), spec)
        )
        interp = metered(lowered.program, heap)
        interp.globals.update(DEFAULT_GLOBALS)
        interp.run_entry(twin)
        assert interp.meter.instructions > 1.5 * het.meter.instructions

    def test_treefuser_fusion_has_instruction_overhead(self):
        """Fig. 9b: TreeFuser's fused version pays 30-40% more
        instructions than its own baseline; Grafter's does not."""
        spec = replicated_pages_spec(3)
        program = render_program()
        lowered = lower_program(program)
        fused_low = plan_and_synthesize(lowered.program)

        def run(fused_mode):
            heap = Heap(lowered.program)
            twin = lower_tree(
                program, lowered, heap,
                build_document(program, Heap(program), spec),
            )
            interp = metered(lowered.program, heap)
            interp.globals.update(DEFAULT_GLOBALS)
            if fused_mode:
                interp.run_fused(fused_low, twin)
            else:
                interp.run_entry(twin)
            return interp

        baseline = run(False)
        fused = run(True)
        overhead = fused.meter.instructions / baseline.meter.instructions
        assert 1.1 <= overhead <= 1.9
        assert fused.node_visits < baseline.node_visits
