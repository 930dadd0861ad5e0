"""Staged compilation pipeline with pass manager and compile cache.

The one entry point every driver (CLI, codegen, bench runner, examples)
goes through::

    from repro import pipeline

    result = pipeline.compile(source_text_or_program)
    result.fused              # the FusedProgram
    result.compiled_fused     # exec'd generated Python (options.emit)
    result.cache_hit          # served from the content-addressed cache?
    print(result.timings_report())

Stages (each wall-timed, each reporting IR-size stats)::

    parse → validate → lower? → access-analysis → dependence → fusion → schedule → emit

Passes are *unit-granular* (see :mod:`repro.pipeline.manager`): each
declares per-unit inputs/outputs — methods for access analysis and
unfused emission, fused member sequences for dependence/fusion/emit —
and every unit's artifact is content-addressed in the
:class:`~repro.storage.TieredStore` the compile is given (by default
the in-process memory tier alone; a ``Session`` adds its on-disk
:class:`~repro.storage.DiskTier` and read-only
:class:`~repro.storage.PeerTier` warm sources).
Whole results stay memoized under ``(source hash, options hash)``:
warm compiles are dictionary lookups, and when the whole-result key
misses — a first-ever compile or an edited workload — unchanged units
reload instead of recomputing whenever the compile has a store
(``CompileResult.unit_report()`` shows the per-pass reuse). See :mod:`repro.pipeline.stages` for the pass
implementations (the former monolithic fusion engine, decomposed).
"""

from repro.pipeline.driver import (
    GLOBAL_CACHE,
    GLOBAL_STORE,
    compile,
    hash_program,
    hash_source,
)
from repro.pipeline.manager import Pass, PassContext, PassManager, Unit
from repro.pipeline.options import (
    CompileOptions,
    CompileResult,
    PassTiming,
    impl_ref,
    impls_portable,
)
from repro.pipeline.stages import default_passes
from repro.pipeline.units import UnitArtifacts, UnitIndex

__all__ = [
    "impl_ref",
    "impls_portable",
    "compile",
    "CompileOptions",
    "CompileResult",
    "GLOBAL_CACHE",
    "GLOBAL_STORE",
    "Pass",
    "PassContext",
    "PassManager",
    "PassTiming",
    "Unit",
    "UnitArtifacts",
    "UnitIndex",
    "default_passes",
    "hash_program",
    "hash_source",
]
