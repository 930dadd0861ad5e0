"""A compile with no store and a compile replayed from a store fuse alike.

``store=None`` compiles with no tier and no unit layer: every pass
computes every unit. A ``reuse_result=False`` compile over a store that
an earlier compile filled serves every unit from that store instead
(``plan_from_structure`` replays each fusion plan). Both must synthesize
the same fused programs on all four paper workloads (render, astlang,
kdtree, fmm) and on the TreeFuser-lowered render."""

import pytest

from repro.fusion.fused_ir import print_fused_program
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.storage import MemoryTier, TieredStore
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


def replayed(program, options):
    """*program* compiled into a fresh store, then compiled again with
    ``reuse_result=False`` under a new memory tier over that store, as a
    new process would see it; the second compile recomputes no unit."""
    store = fresh_store()
    pipeline_compile(program, store=store, options=options)
    again = pipeline_compile(
        program,
        store=TieredStore([MemoryTier(), *store.tiers]),
        options=options,
        reuse_result=False,
    )
    assert not again.cache_hit
    assert sum(t.detail.get("unit_hits", 0) for t in again.timings) > 0
    assert sum(t.detail.get("unit_misses", 0) for t in again.timings) == 0
    return again.fused


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_uncached_fusion_matches_pipeline(name):
    program = WORKLOADS[name]()
    options = CompileOptions(emit=False)
    uncached = pipeline_compile(program, store=None, options=options).fused
    via_pipeline = replayed(program, options)
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
    # the lower pass runs inside both compiles, so the replay also
    # serves the lowered program from its unit
    program = render_program()
    options = CompileOptions(mode="treefuser", lower=True, emit=False)
    uncached = pipeline_compile(program, store=None, options=options).fused
    via_pipeline = replayed(program, options)
    assert set(uncached.units) == set(via_pipeline.units)
    assert print_fused_program(uncached) == print_fused_program(
        via_pipeline
    )
