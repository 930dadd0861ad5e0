"""The single compile entry point: ``repro.pipeline.compile()``.

Accepts either Grafter source text or an already-built
:class:`~repro.ir.program.Program` (workload modules hand those out),
hashes the content plus the options, consults the compile's
:class:`~repro.storage.TieredStore` — memory tier, then the
``options.cache_dir`` disk store, then any ``options.peers`` — and on
a miss runs the staged pass pipeline. The result carries the fused
program, the generated Python modules (when ``options.emit``), and
per-pass wall-time / IR-size instrumentation for the ``--timings``
report.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Union

from repro import obs
from repro.ir.program import Program
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
#: the caller passes its own (``Session(memory_budget=...)`` does). Keys
#: are pure content hashes, so compiling the same text through two
#: different ``Program`` objects hits the same entry.
GLOBAL_CACHE = MemoryTier()


def compile(
    source: Union[str, Program, "Workload"],
    *,
    options: Optional[CompileOptions] = None,
    name: str = "program",
    cache: Optional[MemoryTier] = GLOBAL_CACHE,
    incremental: bool = True,
    reuse_result: bool = True,
) -> CompileResult:
    """Compile a Workload, Grafter source, or Program through the
    staged pipeline.

    A second call with the same content and options is served from the
    cache: the returned result is the cached record with ``cache_hit``
    set, ``timings`` reduced to the lookup cost, and the cold per-pass
    timings preserved under ``cold_timings``. An ``emit=False`` request
    is also served from a cached ``emit=True`` result of the same source
    (a strict superset — the extra emitted fields just come along). To
    force a cold compile use ``options.use_cache=False`` (disables every
    storage tier); ``cache=None`` alone skips only the memory layer — a
    configured ``options.cache_dir`` store or peer can still serve the
    result.

    Storage is tiered (:mod:`repro.storage`): with ``options.cache_dir``
    set, a memory miss falls through to the on-disk
    :class:`~repro.storage.DiskTier` rooted there, and with
    ``options.peers`` set, a disk miss falls through to each read-only
    peer (a second store root or a remote ``repro serve``). Hits are
    promoted upward — a disk hit into memory, a peer hit onto the local
    disk *and* into memory — and cold results are published to every
    writable tier (unless ``options.persist`` is off) so *other
    processes and hosts* start warm.

    ``incremental`` (default on) keys every pass's work on *compilation
    units* (methods, fused sequences, emitted module functions — see
    :mod:`repro.pipeline.units`): when the whole-result key misses —
    a first-ever compile, or a workload edited since the last one —
    unchanged units load from the unit layer of the same tiers and
    only dirtied units recompute, with per-pass hit/miss counts in the
    timing details (``CompileResult.unit_report``). The unit layer obeys
    the same gates as results: ``use_cache=False`` disables it, the
    memory side lives in *cache*, the durable sides in ``cache_dir``
    and ``peers``.

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
    if isinstance(source, Workload):
        name = source.name
        pure_impls = (
            dict(source.pure_impls) if source.pure_impls else None
        )
        source = source.source
    options = options if options is not None else CompileOptions()
    # fail a typo'd layout before any hashing or tier traffic — the
    # knob participates in every cache key, so an unknown name would
    # otherwise pollute the stores before the emit pass rejects it
    from repro.layout import check_layout

    check_layout(options.layout)
    # one span per compile: the trace root when this is the outermost
    # recorded operation (a bare pipeline.compile() call), otherwise a
    # child of session.compile / exec.group. options.trace=True forces
    # recording for this compile even with the process tracer off.
    with obs.span(
        "pipeline.compile",
        force=bool(options.trace),
        workload=name,
        layout=options.layout,
    ) as span:
        start = time.perf_counter()
        if isinstance(source, Program):
            program: Optional[Program] = source
            source_text = None
            source_hash = hash_program(source)
            name = source.name
        else:
            program = None
            source_text = source
            source_hash = hash_source(source, pure_impls)
        key = ResultKey.of(source_hash, options)
        span.set(source_hash=source_hash[:12])

        store = _tiers_for(cache, options)
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
                return replace(
                    hit,
                    cache_hit=True,
                    timings=[lookup],
                    cold_timings=hit.timings,
                )

        units = None
        if incremental and store is not None:
            from repro.pipeline.units import UnitArtifacts

            units = UnitArtifacts(tiers=store)
        pctx = PassContext(
            options,
            source_text=source_text,
            program=program,
            name=name,
            pure_impls=pure_impls,
            source_hash=source_hash,
            cache=cache
            if (cache is not None and options.use_cache)
            else None,
            units=units,
        )
        manager = PassManager(default_passes())
        timings = manager.run(pctx)
        span.set(cache_hit=False, passes=len(timings))
        result = CompileResult(
            source_hash=source_hash,
            options_hash=options.options_hash(),
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
        return result


def _tiers_for(
    cache: Optional[MemoryTier], options: CompileOptions
) -> Optional[TieredStore]:
    """The storage stack for one compile, in lookup order: the memory
    tier (*cache*), the ``cache_dir`` disk store, then each peer.
    ``use_cache=False`` disables everything. Budget knobs resize only
    tiers the caller plausibly administers: ``memory_budget`` applies
    to a *privately passed* cache, never the process-shared
    :data:`GLOBAL_CACHE` (one caller's small budget must not evict
    everyone else's results — ``Session(memory_budget=...)`` builds
    its own tier for exactly this reason); ``disk_budget`` is a
    per-store setting on the directory the same options name (the
    registry shares one instance per directory, so the most recent
    setting wins — administering a store means administering its
    budget). Returns ``None`` when no tier is configured."""
    if not options.use_cache:
        return None
    tiers = []
    if cache is not None:
        if (
            options.memory_budget is not None
            and cache is not GLOBAL_CACHE
        ):
            cache.max_bytes = options.memory_budget
        tiers.append(cache)
    if options.cache_dir is not None:
        # lazy imports keep pipeline imports light for cache-only use
        from repro.storage.disk import disk_tier_for

        disk = disk_tier_for(options.cache_dir)
        if options.disk_budget is not None:
            disk.max_bytes = options.disk_budget
        tiers.append(disk)
    for target in options.peers:
        from repro.storage.peer import peer_tier_for

        tiers.append(peer_tier_for(target))
    if not tiers:
        return None
    return TieredStore(tiers, persist=options.persist)
