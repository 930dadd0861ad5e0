"""Interpreter parity: the interpreter must produce the same snapshot,
final globals, and write-set as BOTH compiled forms (fused and unfused)
under BOTH tree layouts (object graph and forest pool), on all four
paper workloads — and so must the interpreter running the fused
program.

This is the acceptance gate for the interpreter being "the executable
specification": if it ever disagrees with compiled output, either a
backend is unsound or the spec itself regressed — both are release
blockers, and :func:`repro.interp.diff_report` names the first
diverging path so the failure reads like a bug report.
"""

import pytest

from repro.interp import (
    InterpretedModule,
    diff_report,
    interpret_workload,
    make_record,
    resolve_program,
)
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime.heap import Heap
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

CASES = [
    ("render", render_workload, {"pages": 2}),
    ("astlang", astlang_workload, {"functions": 6}),
    ("kdtree", kdtree_workload, {"depth": 4}),
    ("fmm", fmm_workload, {"particles": 48}),
]


def _interp_record(workload, spec_kwargs, layout, fused=None):
    resolved = resolve_program(
        workload.source,
        name=workload.name,
        pure_impls=dict(workload.pure_impls or {}) or None,
    )
    heap = Heap(resolved)
    root = workload.build_tree(
        resolved, heap, workload.make_spec(**spec_kwargs)
    )
    before = root.snapshot(resolved)
    globals_map = dict(workload.globals_map or {})
    module = InterpretedModule(resolved, layout=layout, fused=fused)
    runner = module.run_entry if fused is None else module.run_fused
    context = runner(heap, root, globals_map)
    return make_record(
        f"interp{'' if fused is None else '-fused'}/{layout}",
        before,
        root.snapshot(resolved),
        globals_map,
        context.globals,
    )


def _compiled_record(workload, spec_kwargs, layout, fused):
    result = pipeline_compile(
        workload, options=CompileOptions(layout=layout)
    )
    program = result.program
    heap = Heap(program)
    root = workload.build_tree(
        program, heap, workload.make_spec(**spec_kwargs)
    )
    before = root.snapshot(program)
    globals_map = dict(workload.globals_map or {})
    module = result.compiled_fused if fused else result.compiled_unfused
    runner = module.run_fused if fused else module.run_entry
    context = runner(heap, root, globals_map)
    label = f"{'fused' if fused else 'unfused'}/{layout}"
    return make_record(
        label,
        before,
        root.snapshot(program),
        globals_map,
        context.globals,
    )


@pytest.mark.parametrize(
    "name,factory,spec_kwargs",
    CASES,
    ids=[case[0] for case in CASES],
)
@pytest.mark.parametrize("layout", ["object", "pooled"])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
class TestInterpreterMatchesCompiled:
    def test_snapshot_globals_writes_identical(
        self, name, factory, spec_kwargs, layout, fused
    ):
        workload = factory()
        interp = _interp_record(workload, spec_kwargs, layout)
        compiled = _compiled_record(workload, spec_kwargs, layout, fused)
        report = diff_report(interp, compiled)
        assert report is None, report
        # the run actually did something, or parity is vacuous
        assert interp.write_set or interp.globals


@pytest.mark.parametrize(
    "name,factory,spec_kwargs",
    CASES,
    ids=[case[0] for case in CASES],
)
@pytest.mark.parametrize("layout", ["object", "pooled"])
def test_interpreted_fused_matches_interpreted_original(
    name, factory, spec_kwargs, layout
):
    workload = factory()
    fused = pipeline_compile(
        workload, options=CompileOptions(emit=False)
    ).fused
    original = _interp_record(workload, spec_kwargs, "object")
    interp_fused = _interp_record(workload, spec_kwargs, layout, fused)
    report = diff_report(original, interp_fused)
    assert report is None, report
    assert original.write_set or original.globals


class TestInterpretWorkloadHelper:
    def test_returns_compiled_style_handles(self):
        program, heap, root, context = interpret_workload(
            render_workload(), pages=2
        )
        assert root.snapshot(program)  # live tree, snapshotable
        assert context.globals  # final globals observable

    def test_pooled_layout_writes_back(self):
        obj = interpret_workload(render_workload(), pages=2)
        pooled = interpret_workload(
            render_workload(), layout="pooled", pages=2
        )
        assert obj[2].snapshot(obj[0]) == pooled[2].snapshot(pooled[0])
        assert obj[3].globals == pooled[3].globals

    def test_run_fused_needs_a_fused_program(self):
        from repro.errors import RuntimeFailure

        workload = render_workload()
        program = resolve_program(workload.source)
        heap = Heap(program)
        root = workload.build_tree(
            program, heap, workload.make_spec(pages=1)
        )
        with pytest.raises(RuntimeFailure, match="fused program"):
            InterpretedModule(program).run_fused(heap, root)

    def test_unknown_layout_rejected_at_construction(self):
        from repro.errors import RuntimeFailure

        program = resolve_program(render_workload().source)
        with pytest.raises(RuntimeFailure, match="layout"):
            InterpretedModule(program, layout="columnar")

    def test_run_stats_recorded(self):
        workload = render_workload()
        program = resolve_program(
            workload.source, pure_impls=dict(workload.pure_impls or {})
        )
        heap = Heap(program)
        root = workload.build_tree(
            program, heap, workload.make_spec(pages=2)
        )
        module = InterpretedModule(program)
        module.run_entry(heap, root, dict(workload.globals_map or {}))
        stats = module.last_stats
        assert stats["node_visits"] > 0
        assert stats["writes"] > 0
        assert stats["seconds"] >= 0
