"""Traversal-service throughput: batching and persistent warm starts.

Two claims, recorded in ``benchmark_results/service_throughput.txt``:

1. **Batching wins.** Executing a 64-tree render forest as one batched
   request (grouped by artifact, sharded across ≥2 workers) beats the
   same 64 trees submitted to the *same service* one request at a time
   — each single-tree request pays the full per-request service cost
   (wave formation, grouping/key hashing, artifact resolution, pool
   dispatch, metrics) that the batch pays once. The executor is held
   constant; only the submission pattern varies. On a single-core host
   that amortization *is* the win; with real cores the sharded pool
   adds parallel speedup on top.

2. **Persistence wins.** A fresh process whose ``cache_dir`` holds a
   spilled artifact compiles ≥10x faster than a cold fresh process: the
   warm path is a file read plus an unpickle instead of the full
   parse→fuse→emit pipeline. Both child processes pre-import the
   execution modules, so the timed region isolates compile work (the
   imports are identical on both sides and a service process pays them
   once at boot, not per compile).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
import time

from repro.api import Workload
from repro.bench.runner import run_forest
from repro.workloads.render import (
    DEFAULT_GLOBALS,
    RENDER_PURE_IMPLS,
    RENDER_SOURCE,
    build_document,
    replicated_pages_spec,
)

# the string-DSL render program: the artifact every run resolves
WORKLOAD = Workload.from_source(
    "render",
    RENDER_SOURCE,
    build_document,
    pure_impls=RENDER_PURE_IMPLS,
    globals_map=DEFAULT_GLOBALS,
)

FOREST = 64
PAGES = 2
WORKERS = 2
ROUNDS = 5


def _forest():
    return [replicated_pages_spec(PAGES) for _ in range(FOREST)]


def _run(executor, sequential: bool):
    return run_forest(
        "sequential" if sequential else "batched",
        WORKLOAD,
        _forest(),
        sequential=sequential,
        executor=executor,
    )


def test_batched_beats_sequential_single_tree(results_dir):
    from repro.service.executor import BatchExecutor

    with BatchExecutor(workers=WORKERS, backend="thread") as executor:
        # warm the compile cache so neither mode pays the cold compile —
        # the comparison is submission pattern, not compilation
        _run(executor, sequential=False)

        sequential_walls, batched_walls = [], []
        sequential_run = batched_run = None
        for _ in range(ROUNDS):
            # level the collector between timed runs: a gen-2 pause
            # landing inside one mode would charge it to the submission
            # pattern, which is not the variable under test
            gc.collect()
            sequential_run = _run(executor, sequential=True)
            sequential_walls.append(sequential_run.wall_seconds)
            gc.collect()
            batched_run = _run(executor, sequential=False)
            batched_walls.append(batched_run.wall_seconds)

    # both modes executed identical forests to identical results
    assert sequential_run.trees == batched_run.trees == FOREST
    assert sequential_run.summaries == batched_run.summaries

    sequential_s = min(sequential_walls)
    batched_s = min(batched_walls)
    latency = batched_run.stats["tree_latency"]
    text = (
        f"Service throughput (render forest, {FOREST} trees x {PAGES} "
        f"pages, one {WORKERS}-worker thread executor, best of "
        f"{ROUNDS})\n"
        f"sequential single-tree requests: {sequential_s * 1e3:8.1f} ms "
        f"({FOREST} waves of 1)\n"
        f"batched forest request:          {batched_s * 1e3:8.1f} ms "
        f"(1 wave)\n"
        f"speedup (sequential/batched):    {sequential_s / batched_s:8.2f}x\n"
        f"batched tree latency: p50 {latency['p50'] * 1e3:.3f} ms, "
        f"p99 {latency['p99'] * 1e3:.3f} ms"
    )
    print()
    print(text)
    assert batched_s < sequential_s, (
        f"batched {batched_s * 1e3:.1f} ms did not beat sequential "
        f"{sequential_s * 1e3:.1f} ms"
    )
    # write only after the gate: a failing run must not overwrite a
    # passing run's committed artifact
    _write_section(results_dir, "Service throughput", text)


_CHILD = textwrap.dedent(
    """
    import importlib, pkgutil, sys, time
    # pre-import *every* repro module before the timer starts: on this
    # single-CPU host, first-import cost (~100s of ms across the
    # compile stack) would otherwise be charged to whichever measurement
    # runs first — polluting exactly the cold numbers the 10x claim is
    # about. A real service process pays imports once at boot, not per
    # compile, so the timed region must isolate compile work.
    import repro
    for _m in pkgutil.walk_packages(repro.__path__, "repro."):
        if _m.name.endswith("__main__"):
            continue  # the CLI entry point execs main() on import
        importlib.import_module(_m.name)
    from repro.pipeline import CompileOptions
    from repro.pipeline import compile as pipeline_compile
    from repro.storage import MemoryTier
    from repro.workloads.render import (
        DEFAULT_GLOBALS, render_workload, build_document,
        replicated_pages_spec,
    )
    from repro.runtime import Heap

    workload = render_workload()
    options = CompileOptions(cache_dir=sys.argv[1])
    start = time.perf_counter()
    result = pipeline_compile(
        workload, options=options, cache=MemoryTier(),
    )
    seconds = time.perf_counter() - start
    # prove the artifact actually runs in this process
    heap = Heap(result.program)
    root = build_document(result.program, heap, replicated_pages_spec(2))
    result.compiled_fused.run_fused(heap, root, DEFAULT_GLOBALS)
    assert root.snapshot(result.program)
    print(f"{seconds:.6f} {int(result.cache_hit)}")
    """
)


def _child_compile_seconds(cache_dir: str) -> tuple[float, bool]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, cache_dir],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, hit = proc.stdout.split()
    return float(seconds), bool(int(hit))


def test_warm_store_compiles_10x_faster_across_processes(
    results_dir, tmp_path
):
    cache_dir = str(tmp_path / "artifacts")

    cold_s, cold_hit = _child_compile_seconds(cache_dir)
    assert not cold_hit
    warm_series = []
    for _ in range(ROUNDS):
        warm_s, warm_hit = _child_compile_seconds(cache_dir)
        assert warm_hit
        warm_series.append(warm_s)
    warm_s = min(warm_series)

    text = (
        "Persistent store, cross-process (render program, fresh "
        "process per measurement)\n"
        f"cold compile (empty store):  {cold_s * 1e3:8.1f} ms\n"
        f"warm compile (stored artifact): {warm_s * 1e3:5.1f} ms "
        f"(best of {ROUNDS})\n"
        f"speedup (cold/warm):         {cold_s / warm_s:8.1f}x"
    )
    print()
    print(text)
    assert cold_s >= warm_s * 10, (
        f"warm start {warm_s * 1e3:.1f} ms is not 10x faster than cold "
        f"{cold_s * 1e3:.1f} ms"
    )
    _write_section(results_dir, "Persistent store", text)


# service_throughput.txt holds one section per test so a partial run
# (-k, a failure) leaves the other section's committed numbers intact
_SECTION_MARKERS = ["Service throughput", "Persistent store"]


def _write_section(results_dir, marker: str, text: str) -> None:
    path = results_dir / "service_throughput.txt"
    existing = path.read_text() if path.exists() else ""
    positions = sorted(
        (existing.index(m), m) for m in _SECTION_MARKERS if m in existing
    )
    sections = {}
    for (start, m), nxt in zip(
        positions, positions[1:] + [(len(existing), None)]
    ):
        sections[m] = existing[start : nxt[0]].rstrip("\n")
    sections[marker] = text
    path.write_text(
        "\n".join(sections[m] for m in _SECTION_MARKERS if m in sections)
        + "\n"
    )
