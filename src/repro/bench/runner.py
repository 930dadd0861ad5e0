"""Fused-vs-unfused comparison driver.

Compilation goes through ``repro.pipeline.compile()``: fusing the same
program for one experiment after another is a content-addressed cache
hit, not a re-synthesis (the old ad-hoc ``id()``-keyed dictionaries this
module carried are gone). TreeFuser lowering is a pipeline *pre-pass*
(``CompileOptions(lower=True)``): lowered programs get the same
per-pass timings and per-unit caching as everything else, and the
lowering metadata rides on ``CompileResult.lowered``.

Forest experiments (many trees, one artifact) route through the
traversal service's :class:`~repro.service.executor.BatchExecutor` via
:func:`run_forest`, so benchmarks exercise the same grouping/sharding
path production traffic takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.bench.metrics import Measurement, measure_run
from repro.fusion import FusionLimits
from repro.fusion.fused_ir import FusedProgram
from repro.ir.program import Program
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.treefuser import LoweredProgram, lower_tree


def fused_for(
    program: Union[Program, "Workload"],
    limits: Optional[FusionLimits] = None,
) -> FusedProgram:
    """Fuse a program or workload via the pipeline (synthesis is
    compile-time work; repeated requests for the same program + limits
    hit the compile cache)."""
    options = CompileOptions(
        limits=limits if limits is not None else FusionLimits(),
        emit=False,
    )
    return pipeline_compile(program, options=options).fused


def compare_workload(
    label: str,
    workload: "Workload",
    spec=None,
    *,
    cache_scale: Optional[int] = None,
    limits: Optional[FusionLimits] = None,
    options: Optional[CompileOptions] = None,
    **spec_kwargs,
) -> "CompareResult":
    """Grafter experiment over a workload bundle: one input tree (the
    default spec, or an explicit one), unfused then fused — the
    Workload-native face of :func:`compare_fused_unfused`.

    Pass a session's ``options`` so the compile shares its caches (in
    particular an on-disk ``cache_dir`` — a warm store then serves the
    fusion instead of a cold pipeline run)."""
    from dataclasses import replace

    from repro.api.workload import Workload as _W  # narrow import

    if not isinstance(workload, _W):
        raise TypeError(
            f"compare_workload takes a Workload, got {type(workload).__name__}; "
            f"use compare_fused_unfused for a bare Program"
        )
    base = options if options is not None else CompileOptions()
    if limits is not None:
        base = replace(base, limits=limits)
    result = pipeline_compile(workload, options=replace(base, emit=False))
    program = result.program
    if spec is None:
        spec = workload.spec(**spec_kwargs)

    def build(p, h):
        return workload.build_tree(p, h, spec)

    unfused = measure_run(
        program, build, workload.globals_map, cache_scale=cache_scale
    )
    fused = measure_run(
        program,
        build,
        workload.globals_map,
        fused=result.fused,
        cache_scale=cache_scale,
    )
    return CompareResult(label=label, unfused=unfused, fused=fused)


def lowered_for(program: Program) -> LoweredProgram:
    """The TreeFuser lowering alone — the ``lower`` pipeline pass's
    unit artifact, addressed through the *same* key space a full
    ``CompileOptions(lower=True)`` compile uses, so the two entry
    points share one lowering per program content. Computed directly
    when cold: callers that only need the tagged-union twin (LoC
    reports, tree converters) never pay for analysis and fusion."""
    from repro.pipeline import GLOBAL_CACHE, hash_program
    from repro.pipeline.options import hash_text
    from repro.treefuser.lowering import lower_program

    key = hash_text(f"lower\x00{hash_program(program)}")
    lowered = GLOBAL_CACHE.get_unit("lower", key)
    if lowered is None:
        lowered = lower_program(program)
        GLOBAL_CACHE.put_unit("lower", key, lowered)
    return lowered


def lowered_fused_for(program: Program) -> FusedProgram:
    options = CompileOptions(lower=True, emit=False)
    return pipeline_compile(program, options=options).fused


@dataclass
class CompareResult:
    label: str
    unfused: Measurement
    fused: Measurement

    @property
    def normalized(self) -> dict[str, float]:
        return self.fused.normalized_to(self.unfused)


def compare_fused_unfused(
    label: str,
    program: Program,
    build_tree: Callable,
    globals_map: Optional[dict] = None,
    cache_scale: Optional[int] = None,
) -> CompareResult:
    """Grafter experiment: the same input, unfused then fused."""
    unfused = measure_run(
        program, build_tree, globals_map, fused=None, cache_scale=cache_scale
    )
    fused = measure_run(
        program,
        build_tree,
        globals_map,
        fused=fused_for(program),
        cache_scale=cache_scale,
    )
    return CompareResult(label=label, unfused=unfused, fused=fused)


@dataclass
class ForestRun:
    """One forest execution through the service executor."""

    label: str
    trees: int
    wall_seconds: float
    summaries: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def run_forest(
    label: str,
    workload: "Workload",
    trees: Sequence,
    *,
    options: Optional[CompileOptions] = None,
    fused: bool = True,
    workers: int = 2,
    backend: str = "thread",
    cache_dir: Optional[str] = None,
    sequential: bool = False,
    executor=None,
) -> ForestRun:
    """Execute a workload's forest through the batch executor.

    ``sequential=True`` is the single-tree baseline: every tree becomes
    its own request executed in its own wave (each paying the full
    per-request service overhead), exactly what a client that never
    batches would experience. The default submits the whole forest as
    one request — grouped, compiled once, and sharded across workers.

    Pass an ``executor`` to reuse one across runs (how the throughput
    benchmark holds the service constant while varying only the
    submission pattern); otherwise a fresh one is created and closed.
    """
    import time

    from repro.service.batching import ExecRequest
    from repro.service.executor import BatchExecutor

    effective = options if options is not None else CompileOptions()

    def request(specs):
        return ExecRequest(
            workload, list(specs), options=effective, fused=fused
        )

    owned = executor is None
    if owned:
        executor = BatchExecutor(
            workers=workers, backend=backend, cache_dir=cache_dir
        )
    try:
        from repro import obs

        start = time.perf_counter()
        with obs.span(
            "bench.run_forest", label=label, backend=backend
        ):
            if sequential:
                results = [
                    executor.run([request([spec])])[0] for spec in trees
                ]
            else:
                results = executor.run([request(trees)])
        wall = time.perf_counter() - start
        failed = [r for r in results if not r.ok]
        if failed:
            raise RuntimeError(failed[0].error)
        summaries = [t.summary for r in results for t in r.trees]
        return ForestRun(
            label=label,
            trees=len(summaries),
            wall_seconds=wall,
            summaries=summaries,
            stats=executor.stats(),
        )
    finally:
        if owned:
            executor.close()


def compare_treefuser(
    label: str,
    program: Program,
    build_tree: Callable,
    globals_map: Optional[dict] = None,
    cache_scale: Optional[int] = None,
) -> CompareResult:
    """TreeFuser experiment: lower the program and the input, then run
    the lowered baseline and the lowered-fused version (Fig. 9b is
    normalized to the TreeFuser baseline, not the Grafter one)."""
    lowered = lowered_for(program)

    def build_lowered(lowered_program: Program, heap):
        from repro.runtime import Heap

        source_heap = Heap(program)
        source_root = build_tree(program, source_heap)
        return lower_tree(program, lowered, heap, source_root)

    unfused = measure_run(
        lowered.program, build_lowered, globals_map, cache_scale=cache_scale
    )
    fused = measure_run(
        lowered.program,
        build_lowered,
        globals_map,
        fused=lowered_fused_for(program),
        cache_scale=cache_scale,
    )
    return CompareResult(label=label, unfused=unfused, fused=fused)
