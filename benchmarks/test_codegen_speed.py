"""Generated-code benchmark: compiled fused vs compiled unfused.

The metering interpreter measures the paper's counters; the generated
Python measures honest wall time. In CPython the fused code's saved
dispatches are roughly offset by its active-flag machinery (and there is
no hardware cache locality to harvest), so the expected result is
*parity*, not the paper's speedup — the speedup lives in the simulated
metrics (EXPERIMENTS.md), while this bench guards against the fused
code being outright slower.
"""

import time

from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Heap
from repro.storage import MemoryTier
from repro.workloads.render import (
    RENDER_SOURCE,
    build_document,
    render_program,
    replicated_pages_spec,
)
from repro.workloads.render.schema import DEFAULT_GLOBALS

PAGES = 64
WALLTIME_ROUNDS = 7
COMPILE_ROUNDS = 5

# codegen_speed.txt holds one section per test, in this order; each test
# rewrites only its own section so any selection of tests (-k, a failure
# in one) leaves the other's numbers intact
_SECTION_MARKERS = ["Generated-code wall time", "Pipeline compile time"]


def _write_section(perf_results_dir, marker: str, text: str) -> None:
    path = perf_results_dir / "codegen_speed.txt"
    existing = path.read_text() if path.exists() else ""
    positions = sorted(
        (existing.index(m), m) for m in _SECTION_MARKERS if m in existing
    )
    sections = {}
    for (start, m), nxt in zip(positions, positions[1:] + [(len(existing), None)]):
        sections[m] = existing[start : nxt[0]].rstrip("\n")
    sections[marker] = text
    path.write_text(
        "\n".join(sections[m] for m in _SECTION_MARKERS if m in sections)
        + "\n"
    )


def _fresh_tree():
    program = render_program()
    heap = Heap(program)
    return heap, build_document(program, heap, replicated_pages_spec(PAGES))


def test_codegen_unfused_walltime(benchmark):
    compiled = pipeline_compile(render_program()).compiled_unfused
    compiled.namespace  # built before the timed rounds

    def run():
        heap, root = _fresh_tree()
        compiled.run_entry(heap, root, DEFAULT_GLOBALS)
        return root

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_codegen_fused_walltime(benchmark, perf_results_dir):
    program = render_program()
    result = pipeline_compile(program)
    compiled_unfused = result.compiled_unfused
    compiled_fused = result.compiled_fused
    # both namespaces are built before the timed rounds
    compiled_unfused.namespace
    compiled_fused.namespace

    def run_fused():
        heap, root = _fresh_tree()
        compiled_fused.run_fused(heap, root, DEFAULT_GLOBALS)
        return root

    result = benchmark.pedantic(run_fused, rounds=5, iterations=1)

    # correctness + speed summary against the unfused compiled version
    # (best of WALLTIME_ROUNDS each, alternating: single-shot wall times
    # flake past the threshold, and on a shared host a few ms of other
    # processes' work can land on every run of a short series)
    unfused_times = []
    fused_times = []
    root_a = root_b = None
    for _ in range(WALLTIME_ROUNDS):
        heap_a, root_a = _fresh_tree()
        start = time.perf_counter()
        compiled_unfused.run_entry(heap_a, root_a, DEFAULT_GLOBALS)
        unfused_times.append(time.perf_counter() - start)
        heap_b, root_b = _fresh_tree()
        start = time.perf_counter()
        compiled_fused.run_fused(heap_b, root_b, DEFAULT_GLOBALS)
        fused_times.append(time.perf_counter() - start)
    unfused_seconds = min(unfused_times)
    fused_seconds = min(fused_times)
    assert root_a.snapshot(program) == root_b.snapshot(program)
    text = (
        "Generated-code wall time (render tree, "
        f"{PAGES} pages)\n"
        f"unfused: {unfused_seconds * 1e3:.1f} ms\n"
        f"fused:   {fused_seconds * 1e3:.1f} ms\n"
        f"ratio:   {fused_seconds / unfused_seconds:.2f}"
    )
    print()
    print(text)
    # fused generated code should not be slower than unfused generated code
    assert fused_seconds <= unfused_seconds * 1.15
    # write only after the gate: a failing run must not overwrite a
    # passing run's report
    _write_section(perf_results_dir, "Generated-code wall time", text)


def test_compile_cold_vs_warm(perf_results_dir):
    """Cold-cache vs warm-cache compile time through the staged pipeline.

    Cold: a fresh MemoryTier per round — full parse → fuse → emit.
    Warm: the same source + options again — a content-hash lookup. The
    two series are appended to benchmark_results/perf/codegen_speed.txt so
    the codegen report carries the compile-time split alongside the
    run-time numbers.
    """
    options = CompileOptions()
    cold_series: list[float] = []
    warm_series: list[float] = []
    for _ in range(COMPILE_ROUNDS):
        cache = MemoryTier()
        start = time.perf_counter()
        cold = pipeline_compile(RENDER_SOURCE, options=options, cache=cache)
        cold_series.append(time.perf_counter() - start)
        start = time.perf_counter()
        warm = pipeline_compile(RENDER_SOURCE, options=options, cache=cache)
        warm_series.append(time.perf_counter() - start)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.fused is cold.fused

    cold_ms = [s * 1e3 for s in cold_series]
    warm_ms = [s * 1e3 for s in warm_series]
    marker = "Pipeline compile time"
    text = (
        f"{marker} (render program, cold vs warm cache, "
        f"{COMPILE_ROUNDS} rounds)\n"
        f"cold (fresh cache): {' '.join(f'{v:.1f}' for v in cold_ms)} ms; "
        f"min {min(cold_ms):.1f} ms\n"
        f"warm (cache hit):   {' '.join(f'{v:.3f}' for v in warm_ms)} ms; "
        f"min {min(warm_ms):.3f} ms\n"
        f"speedup (min/min):  {min(cold_ms) / min(warm_ms):.0f}x"
    )
    print()
    print(text)
    # a warm compile must be measurably faster than a cold one
    assert min(warm_series) * 5 < min(cold_series)
    _write_section(perf_results_dir, marker, text)
