"""The single compile entry point: ``repro.pipeline.compile()``.

Accepts either Grafter source text or an already-built
:class:`~repro.ir.program.Program` (workload modules hand those out),
hashes the content plus the options, consults the
:class:`~repro.storage.TieredStore` the caller passes — by default a
memory-only store over :data:`GLOBAL_CACHE`; a ``Session`` passes its
memory → disk → peers store — and on a miss runs the staged pass
pipeline. The result carries the fused program, the generated Python
modules (when ``options.emit``), and per-pass wall-time / IR-size
instrumentation for the ``--timings`` report.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Union

from repro import obs
from repro.ir.program import Program
from repro.layout.base import layout_backend
from repro.pipeline.manager import PassContext, PassManager
from repro.pipeline.options import (
    CompileOptions,
    CompileResult,
    PassTiming,
    hash_program,
    hash_source,
)
from repro.pipeline.stages import default_passes
from repro.storage import MemoryTier, ResultKey, TieredStore

#: The process-wide memory tier every in-process compile shares unless
#: the caller's store has its own (``Session(memory_budget=...)`` does).
#: Keys are pure content hashes, so compiling the same text through two
#: different ``Program`` objects hits the same entry.
GLOBAL_CACHE = MemoryTier()

#: What a compile goes through when its caller passes no store: the
#: process-wide memory tier alone.
GLOBAL_STORE = TieredStore([GLOBAL_CACHE])


def compile(
    source: Union[str, Program, "Workload"],
    *,
    options: Optional[CompileOptions] = None,
    name: str = "program",
    store: Optional[TieredStore] = GLOBAL_STORE,
    reuse_result: bool = True,
) -> CompileResult:
    """Compile a Workload, Grafter source, or Program through the
    staged pipeline.

    A second call with the same content and options is served from the
    store: the returned result is the stored record with ``cache_hit``
    set, ``timings`` reduced to the lookup cost, and the cold per-pass
    timings preserved under ``cold_timings``. An ``emit=False`` request
    is also served from a stored ``emit=True`` result of the same source
    (a strict superset — the extra emitted fields just come along).
    ``store=None`` forces a fully cold compile: no tier is consulted or
    written, and the passes run without a unit layer.

    Storage is tiered (:mod:`repro.storage`): with a disk tier in
    *store*, a memory miss falls through to the on-disk store, and
    with peers, a disk miss falls through to each read-only peer (a
    second store root or a remote ``repro serve``). Hits are promoted
    upward — a disk hit into memory, a peer hit onto the local disk
    *and* into memory — and cold results are published to every
    writable tier (disk only when the store persists) so *other
    processes and hosts* start warm. The returned modules build through
    the same store: the first run of each loads its stored bytecode, or
    compiles its source and publishes the bytecode.

    Every pass keys its work on *compilation units* (methods, fused
    sequences, emitted module functions — see
    :mod:`repro.pipeline.units`): when the whole-result key misses —
    a first-ever compile, or a workload edited since the last one —
    unchanged units load from the unit layer of the same tiers and
    only dirtied units recompute, with per-pass hit/miss counts in the
    timing details (``CompileResult.unit_report``).

    ``reuse_result=False`` skips the whole-result lookup (every tier)
    while keeping the unit layer — the pipeline demonstrably re-runs
    per unit, which is what ``Session.recompile`` and ``repro compile
    --explain`` want; the fresh result is still stored.
    """
    # Workload bundles carry their own impls and name; unpack them
    # first so the rest of the driver sees the two primitive forms.
    # Lazy import: repro.api sits above the pipeline.
    from repro.api.workload import Workload

    pure_impls = None
    workload = None
    if isinstance(source, Workload):
        workload = source
        name = source.name
        pure_impls = (
            dict(source.pure_impls) if source.pure_impls else None
        )
        source = source.source
    options = options if options is not None else CompileOptions()
    # fail a typo'd layout before any hashing or tier traffic — the
    # knob participates in every cache key, so an unknown name would
    # otherwise pollute the stores before the emit pass rejects it
    layout_backend(options.layout)
    # one span per compile: the trace root when this is the outermost
    # recorded operation (a bare pipeline.compile() call), otherwise a
    # child of session.compile / exec.group or of a caller's forced
    # root span
    with obs.span(
        "pipeline.compile", workload=name, layout=options.layout
    ) as span:
        start = time.perf_counter()
        if isinstance(source, Program):
            program: Optional[Program] = source
            source_text = None
            name = source.name
        else:
            program = None
            source_text = source
        if workload is not None:
            # memoized on the workload, so a served request does not
            # print its program again here
            source_hash = workload.source_hash()
        elif program is not None:
            source_hash = hash_program(program)
        else:
            source_hash = hash_source(source_text, pure_impls)
        key = ResultKey.of(source_hash, options)
        span.set(source_hash=source_hash[:12])

        if store is not None and reuse_result:
            hit = store.get_result(key)
            if hit is None and not options.emit:
                # an emit=True result for the same source strictly
                # contains the emit=False one — serve it over re-fusing
                emitting = replace(options, emit=True)
                hit = store.get_result(
                    ResultKey.of(source_hash, emitting)
                )
            if hit is not None:
                span.set(cache_hit=True)
                lookup = PassTiming(
                    name="cache-lookup",
                    seconds=time.perf_counter() - start,
                    detail={"hit": 1},
                )
                _attach_store(hit, store)
                return replace(
                    hit,
                    cache_hit=True,
                    timings=[lookup],
                    cold_timings=hit.timings,
                )

        pctx = PassContext(
            options,
            source_text=source_text,
            program=program,
            name=name,
            pure_impls=pure_impls,
            source_hash=source_hash,
            store=store,
        )
        manager = PassManager(default_passes())
        timings = manager.run(pctx)
        span.set(cache_hit=False, passes=len(timings))
        result = CompileResult(
            source_hash=source_hash,
            options_hash=key.options_hash,
            options=options,
            program=pctx.program,
            fused=pctx.fused,
            timings=timings,
            cache_hit=False,
            unfused_source=pctx.unfused_source,
            fused_source=pctx.fused_source,
            compiled_unfused=pctx.compiled_unfused,
            compiled_fused=pctx.compiled_fused,
            lowered=pctx.lowered,
        )
        if store is not None:
            store.put_result(key, result)
            _attach_store(result, store)
        return result


def _attach_store(result: CompileResult, store: TieredStore) -> None:
    """Hand *store* to the result's modules: one not built yet loads its
    bytecode from there on first run, or compiles its source and
    publishes the bytecode for the next process. Nothing here compiles:
    a cold compile stays lazy."""
    for module in (result.compiled_unfused, result.compiled_fused):
        if module is not None:
            module.attach_store(store)
