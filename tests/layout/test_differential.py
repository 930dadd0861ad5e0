"""Differential tests: object-graph vs pooled backends must agree.

Every workload, fused and unfused, runs once per layout on identical
trees; the full execution records — tree snapshot, final globals (read
from the returned :class:`RuntimeContext`, which is where compiled runs
actually expose them), and derived write-set — are diffed through the
shared :func:`repro.interp.diff_report` helper, so a failure names the
first diverging node path/field/global instead of dumping two hashes. A
separate test pins the storage contract: pooled and object artifacts
never collide in any cache tier.
"""

import dataclasses

import pytest

from repro.interp import diff_report, make_record
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime.heap import Heap
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload
from tests.fixtures import fresh_store

CASES = [
    ("render", render_workload, {"pages": 2}),
    ("astlang", astlang_workload, {"functions": 6}),
    ("kdtree", kdtree_workload, {"depth": 4}),
    ("fmm", fmm_workload, {"particles": 48}),
]


def _compiled(workload, layout):
    result = pipeline_compile(
        workload, options=CompileOptions(layout=layout)
    )
    return result


def _run(workload, compiled_result, spec_kwargs, fused, label):
    program = compiled_result.program
    heap = Heap(program)
    root = workload.build_tree(
        program, heap, workload.make_spec(**spec_kwargs)
    )
    before = root.snapshot(program)
    globals_map = dict(workload.globals_map or {})
    module = (
        compiled_result.compiled_fused
        if fused
        else compiled_result.compiled_unfused
    )
    runner = module.run_fused if fused else module.run_entry
    context = runner(heap, root, globals_map)
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
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
class TestLayoutsAgree:
    def test_results_and_writes_match(
        self, name, factory, spec_kwargs, fused
    ):
        workload = factory()
        object_result = _compiled(workload, "object")
        pooled_result = _compiled(workload, "pooled")
        object_record = _run(
            workload, object_result, spec_kwargs, fused, "object"
        )
        pooled_record = _run(
            workload, pooled_result, spec_kwargs, fused, "pooled"
        )
        # the record covers every field of every node plus the final
        # globals and the derived write-set; on divergence the report
        # names the first differing path
        report = diff_report(object_record, pooled_record)
        assert report is None, report
        assert object_record.write_set  # the traversals wrote something


class TestArtifactsNeverCollide:
    def test_layouts_use_disjoint_cache_keys(self, tmp_path):
        workload = render_workload()
        store = fresh_store(tmp_path)
        base = CompileOptions()
        object_cold = pipeline_compile(workload, options=base, store=store)
        pooled_cold = pipeline_compile(
            workload,
            options=dataclasses.replace(base, layout="pooled"),
            store=store,
        )
        # a warm object store must not satisfy the pooled compile
        assert not pooled_cold.cache_hit
        assert pooled_cold.fused_source != object_cold.fused_source
        assert "bind_fused" in pooled_cold.fused_source
        assert "bind_fused" not in object_cold.fused_source
        # warm recompiles hit per layout and stay byte-stable
        object_warm = pipeline_compile(workload, options=base, store=store)
        pooled_warm = pipeline_compile(
            workload,
            options=dataclasses.replace(base, layout="pooled"),
            store=store,
        )
        assert object_warm.cache_hit
        assert pooled_warm.cache_hit
        assert object_warm.fused_source == object_cold.fused_source
        assert pooled_warm.fused_source == pooled_cold.fused_source

    def test_unknown_layout_fails_before_compiling(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown tree layout"):
            pipeline_compile(
                render_workload(),
                options=CompileOptions(layout="columnar"),
            )
