"""Uncached one-call fusion (``plan_and_synthesize``) and the unit-cached
pass pipeline (``pipeline.compile()``) synthesize the same fused
programs on all four paper workloads (render, astlang, kdtree, fmm) and
in TreeFuser-lowered mode."""

import pytest

from repro.fusion.fused_ir import print_fused_program
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.pipeline.stages import plan_and_synthesize
from repro.treefuser import lower_program
from repro.workloads.astlang import ast_program
from repro.workloads.fmm import fmm_program
from repro.workloads.kdtree import EQ1_SCHEDULE, equation_program
from repro.workloads.render import render_program
from tests.fixtures import fresh_store

WORKLOADS = {
    "render": render_program,
    "astlang": ast_program,
    "kdtree": lambda: equation_program(EQ1_SCHEDULE),
    "fmm": fmm_program,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_uncached_fusion_matches_pipeline(name):
    program = WORKLOADS[name]()
    uncached = plan_and_synthesize(program)
    via_pipeline = pipeline_compile(
        program, store=fresh_store(), options=CompileOptions(emit=False)
    ).fused
    assert set(uncached.units) == set(via_pipeline.units)
    assert uncached.stats() == via_pipeline.stats()
    assert print_fused_program(uncached) == print_fused_program(
        via_pipeline
    )
    assert uncached.root_type == via_pipeline.root_type
    assert len(uncached.entry_groups) == len(via_pipeline.entry_groups)
    for a, b in zip(uncached.entry_groups, via_pipeline.entry_groups):
        assert a.method_names == b.method_names
        assert set(a.dispatch) == set(b.dispatch)
        for type_name in a.dispatch:
            assert a.dispatch[type_name].key == b.dispatch[type_name].key


def test_uncached_fusion_matches_pipeline_treefuser_lowered():
    lowered = lower_program(render_program())
    uncached = plan_and_synthesize(lowered.program)
    via_pipeline = pipeline_compile(
        lowered.program,
        store=fresh_store(),
        options=CompileOptions(emit=False),
    ).fused
    assert set(uncached.units) == set(via_pipeline.units)
    assert print_fused_program(uncached) == print_fused_program(
        via_pipeline
    )
