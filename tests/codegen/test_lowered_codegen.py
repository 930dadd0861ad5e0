"""Codegen over TreeFuser-lowered programs: conditional call blocks that
survive ungrouped must compile through the fallback dispatch path."""

import random

import pytest

from repro.frontend import parse_program
from repro.layout.base import layout_backend
from repro.pipeline.stages import plan_and_synthesize
from repro.runtime import Heap
from repro.treefuser import lower_program, lower_tree
from tests.fixtures import metered

from tests.generators import random_program_source, random_tree

OBJECT = layout_backend("object")


@pytest.mark.parametrize("seed", range(6))
def test_lowered_triple_differential(seed):
    source = random_program_source(random.Random(seed))
    program = parse_program(source, name=f"lowcg{seed}")
    lowered = lower_program(program)

    def lowered_tree():
        src_heap = Heap(program)
        het_root = random_tree(program, src_heap, random.Random(seed + 99), 3)
        heap = Heap(lowered.program)
        return heap, lower_tree(program, lowered, heap, het_root)

    # interpreter (unfused, lowered)
    heap_a, root_a = lowered_tree()
    interp = metered(lowered.program, heap_a)
    interp.run_entry(root_a)
    snap = root_a.snapshot(lowered.program)

    # compiled unfused
    compiled = OBJECT.unfused_module(lowered.program)
    heap_b, root_b = lowered_tree()
    ctx_b = compiled.run_entry(heap_b, root_b)
    assert snap == root_b.snapshot(lowered.program)

    # compiled fused (guard-merged slots + possible fallback calls)
    fused = plan_and_synthesize(lowered.program)
    compiled_fused = OBJECT.fused_module(fused)
    heap_c, root_c = lowered_tree()
    ctx_c = compiled_fused.run_fused(heap_c, root_c)
    assert snap == root_c.snapshot(lowered.program)
    assert interp.globals == ctx_b.globals == ctx_c.globals


def test_render_lowered_codegen_matches():
    from repro.workloads.render import (
        build_document, render_program, replicated_pages_spec,
    )
    from repro.workloads.render.schema import DEFAULT_GLOBALS

    program = render_program()
    lowered = lower_program(program)
    spec = replicated_pages_spec(2)

    def lowered_tree():
        heap = Heap(lowered.program)
        src = Heap(program)
        return heap, lower_tree(
            program, lowered, heap, build_document(program, src, spec)
        )

    heap_a, root_a = lowered_tree()
    interp = metered(lowered.program, heap_a)
    interp.globals.update(DEFAULT_GLOBALS)
    interp.run_entry(root_a)
    snap = root_a.snapshot(lowered.program)

    fused = plan_and_synthesize(lowered.program)
    compiled = OBJECT.fused_module(fused)
    heap_b, root_b = lowered_tree()
    compiled.run_fused(heap_b, root_b, DEFAULT_GLOBALS)
    assert snap == root_b.snapshot(lowered.program)
