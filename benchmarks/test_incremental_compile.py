"""Incremental compilation benchmark: cold vs single-edit recompile vs warm.

The scenario the unit-granular pipeline exists for: a developer edits
one traversal of the render workload and recompiles. The whole-result
key misses (the source changed), but unchanged compilation units —
access summaries, dependence structures, fusion plans, emitted module
functions — reload from the unit layer, so only the dirtied slice of
the pipeline re-runs. Single core, one process: the win is pure reuse,
not parallelism.

Acceptance (ISSUE 4): recompile after editing one traversal is >= 3x
faster than a cold compile and produces byte-identical generated
Python. Results land in benchmark_results/perf/incremental_compile.txt.
"""

import importlib
import pkgutil
import time

import repro
from repro.pipeline import compile as pipeline_compile
from repro.storage import MemoryTier, TieredStore
from repro.workloads.render.schema import RENDER_SOURCE

# pre-import every repro module before any timer runs: on this
# single-CPU host a lazy first import landing inside a timed region
# (the pipeline pulls several modules on demand) would be charged to
# whichever series hits it first — usually the cold one, inflating the
# very baseline the speedup is measured against
for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if _module.name.endswith("__main__"):
        continue  # the CLI entry point execs main() on import
    importlib.import_module(_module.name)

ROUNDS = 10

# the edited line lives in Button::setFontStyle; each round edits the
# constant to a fresh value, so every recompile is a genuine
# result-cache miss over a warm unit store — the edit loop a developer
# actually runs
_EDIT_ANCHOR = "this->FontSize = size - 1;"


def _variant(round_index: int) -> str:
    assert _EDIT_ANCHOR in RENDER_SOURCE
    return RENDER_SOURCE.replace(
        _EDIT_ANCHOR, f"this->FontSize = size - {round_index + 2};"
    )


def test_incremental_recompile_speedup(perf_results_dir):
    store = TieredStore([MemoryTier()])
    # populate the unit layer once with the pristine source
    pipeline_compile(RENDER_SOURCE, store=store)

    cold_series: list[float] = []
    recompile_series: list[float] = []
    warm_series: list[float] = []
    edited = cold = None
    for round_index in range(ROUNDS):
        source = _variant(round_index)
        # single-edit recompile: warm units, missed result key
        start = time.perf_counter()
        edited = pipeline_compile(source, store=store)
        recompile_series.append(time.perf_counter() - start)
        assert not edited.cache_hit
        # warm: the identical source again is a whole-result hit
        start = time.perf_counter()
        warm = pipeline_compile(source, store=store)
        warm_series.append(time.perf_counter() - start)
        assert warm.cache_hit
        # cold: no store, full parse -> fuse -> emit
        start = time.perf_counter()
        cold = pipeline_compile(source, store=None)
        cold_series.append(time.perf_counter() - start)
        # the acceptance bar: byte-identical generated Python
        assert edited.fused_source == cold.fused_source
        assert edited.unfused_source == cold.unfused_source

    fusion = next(t for t in edited.timings if t.name == "fusion")
    emit = next(t for t in edited.timings if t.name == "emit")
    cold_ms = [s * 1e3 for s in cold_series]
    recompile_ms = [s * 1e3 for s in recompile_series]
    warm_ms = [s * 1e3 for s in warm_series]
    speedup = min(cold_ms) / min(recompile_ms)
    text = (
        "Incremental compile (render program, edit one traversal, "
        f"{ROUNDS} rounds, single core)\n"
        f"cold (no caches):        "
        f"{' '.join(f'{v:.1f}' for v in cold_ms)} ms; "
        f"min {min(cold_ms):.1f} ms\n"
        f"single-edit recompile:   "
        f"{' '.join(f'{v:.1f}' for v in recompile_ms)} ms; "
        f"min {min(recompile_ms):.1f} ms\n"
        f"warm (result hit):       "
        f"{' '.join(f'{v:.3f}' for v in warm_ms)} ms; "
        f"min {min(warm_ms):.3f} ms\n"
        f"recompile speedup:       {speedup:.1f}x over cold "
        "(>= 3x required)\n"
        "unit reuse on the last recompile: "
        f"fusion {fusion.detail['unit_hits']}/"
        f"{fusion.detail['unit_hits'] + fusion.detail['unit_misses']} "
        "plans hit, "
        f"emit {emit.detail['unit_hits']}/"
        f"{emit.detail['unit_hits'] + emit.detail['unit_misses']} "
        "functions hit\n"
        "generated Python: byte-identical to the cold compile every "
        "round"
    )
    print()
    print(text)
    assert speedup >= 3.0
    # write only after the gate: a failing run must not overwrite a
    # passing run's report
    (perf_results_dir / "incremental_compile.txt").write_text(text + "\n")
