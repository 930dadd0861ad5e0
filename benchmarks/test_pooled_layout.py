"""Pooled layout benchmark: structure-of-arrays vs object-graph runs.

The claim behind ``CompileOptions(layout='pooled')`` (ISSUE 6): a
service answering repeated requests pays, per request, for realizing a
tree and traversing it. The object backend must build a fresh ``Node``
graph every time (traversals mutate their input), then chase
``fields`` dicts and per-node dispatch through it. The pooled backend
serializes the workload's tree into flat columns *once*; each request
is then a C-level column copy (``pool.clone()``), a bind, and an
index-chasing fused run — no per-request tree construction at all.

Three series on fig9/fig11-scale inputs:

* **render, per-request** — object (build + fused run) vs pooled
  (clone + bind + fused run) on a 16-page document (Fig. 9 scale).
* **astlang, per-request** — same comparison on a 24-function AST
  (Fig. 11 scale).
* **batch reuse, 64-tree wave** — the pooled *round trip* (ingest →
  run → write back, what ``run_fused`` does for a single stray
  request) amortized: one ingest serving 64 cloned runs vs 64 full
  round trips vs 64 object runs.

Acceptance (asserted *before* the artifact is written, so a failing
run cannot overwrite a passing run's committed numbers): pooled
per-request >= 1.3x faster than object on both render and astlang, and
the reused pool beats per-request round trips on the 64-tree wave.
Results land in ``benchmark_results/pooled_layout.txt``.
"""

from __future__ import annotations

import time

from repro.codegen.python_backend import RuntimeContext
from repro.layout import ForestPool
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Heap
from repro.service.batching import default_collect
from repro.workloads.astlang import astlang_workload
from repro.workloads.render import render_workload

ROUNDS = 12
WAVE = 64
WAVE_ROUNDS = 3
GATE = 1.3


def _compiled_pair(workload):
    object_result = pipeline_compile(workload, options=CompileOptions())
    pooled_result = pipeline_compile(
        workload, options=CompileOptions(layout="pooled")
    )
    return object_result, pooled_result


def _per_request_series(workload, spec_kwargs):
    """Best-of-ROUNDS per-request seconds for both layouts, plus a
    result-parity check between them."""
    object_result, pooled_result = _compiled_pair(workload)
    program = object_result.program
    spec = workload.make_spec(**spec_kwargs)
    globals_map = dict(workload.globals_map or {})

    # ingest once; every request clones the master pool
    master_heap = Heap(program)
    master_root = workload.build_tree(program, master_heap, spec)
    master = ForestPool.from_tree(program, master_root)
    fused = pooled_result.compiled_fused

    # the layouts take turns, one request each per round, so a stretch
    # of load from other processes lands on both series alike
    object_times = []
    object_summary = None
    pooled_times = []
    last_pool = None
    for _ in range(ROUNDS):
        heap = Heap(program)
        start = time.perf_counter()
        root = workload.build_tree(program, heap, spec)
        object_result.compiled_fused.run_fused(
            heap, root, dict(globals_map)
        )
        object_times.append(time.perf_counter() - start)
        object_summary = default_collect(program, heap, root)

        heap = Heap(program)
        start = time.perf_counter()
        pool = master.clone()
        context = RuntimeContext(program, heap, dict(globals_map))
        fused.bind(context, pool)["run_fused"](pool.roots[0])
        pooled_times.append(time.perf_counter() - start)
        last_pool = pool

    # parity: the cloned pooled run computed the same tree state
    result_heap = Heap(program)
    result_root = last_pool.to_tree(result_heap, last_pool.roots[0])
    pooled_summary = default_collect(program, result_heap, result_root)
    assert (
        pooled_summary["snapshot_sha"] == object_summary["snapshot_sha"]
    ), f"{workload.name}: pooled and object runs diverged"

    return min(object_times), min(pooled_times)


def _wave_series(workload, spec_kwargs):
    """Seconds per WAVE-tree wave: object, pooled round trip per tree,
    pooled with one shared ingest."""
    object_result, pooled_result = _compiled_pair(workload)
    program = object_result.program
    spec = workload.make_spec(**spec_kwargs)
    globals_map = dict(workload.globals_map or {})
    fused = pooled_result.compiled_fused

    object_waves = []
    for _ in range(WAVE_ROUNDS):
        start = time.perf_counter()
        for _ in range(WAVE):
            heap = Heap(program)
            root = workload.build_tree(program, heap, spec)
            object_result.compiled_fused.run_fused(
                heap, root, dict(globals_map)
            )
        object_waves.append(time.perf_counter() - start)

    round_trip_waves = []
    for _ in range(WAVE_ROUNDS):
        start = time.perf_counter()
        for _ in range(WAVE):
            # what a lone pooled request costs: build + ingest + run +
            # write back (run_fused's full round trip)
            heap = Heap(program)
            root = workload.build_tree(program, heap, spec)
            fused.run_fused(heap, root, dict(globals_map))
        round_trip_waves.append(time.perf_counter() - start)

    reuse_waves = []
    for _ in range(WAVE_ROUNDS):
        start = time.perf_counter()
        master_heap = Heap(program)
        master_root = workload.build_tree(program, master_heap, spec)
        master = ForestPool.from_tree(program, master_root)
        for _ in range(WAVE):
            heap = Heap(program)
            pool = master.clone()
            context = RuntimeContext(program, heap, dict(globals_map))
            fused.bind(context, pool)["run_fused"](pool.roots[0])
        reuse_waves.append(time.perf_counter() - start)

    return min(object_waves), min(round_trip_waves), min(reuse_waves)


def test_pooled_layout_speedups(results_dir):
    render_object, render_pooled = _per_request_series(
        render_workload(), {"pages": 16}
    )
    ast_object, ast_pooled = _per_request_series(
        astlang_workload(), {"functions": 24}
    )
    wave_object, wave_round_trip, wave_reuse = _wave_series(
        render_workload(), {"pages": 4}
    )

    render_speedup = render_object / render_pooled
    ast_speedup = ast_object / ast_pooled
    text = (
        "Pooled (structure-of-arrays) vs object-graph layout, fused "
        "runs (best-of timings, single core)\n"
        "\n"
        f"render, 16 pages (Fig. 9 scale), per request "
        f"(best of {ROUNDS}):\n"
        f"  object  (build tree + run):   {render_object * 1e3:8.2f} ms\n"
        f"  pooled  (clone + bind + run): {render_pooled * 1e3:8.2f} ms\n"
        f"  speedup:                      {render_speedup:8.2f}x "
        f"(>= {GATE}x required)\n"
        "\n"
        f"astlang, 24 functions (Fig. 11 scale), per request "
        f"(best of {ROUNDS}):\n"
        f"  object  (build tree + run):   {ast_object * 1e3:8.2f} ms\n"
        f"  pooled  (clone + bind + run): {ast_pooled * 1e3:8.2f} ms\n"
        f"  speedup:                      {ast_speedup:8.2f}x "
        f"(>= {GATE}x required)\n"
        "\n"
        f"batch reuse, {WAVE}-tree render wave, 4 pages "
        f"(best of {WAVE_ROUNDS} waves):\n"
        f"  object, per-tree build + run:      "
        f"{wave_object * 1e3:8.1f} ms\n"
        f"  pooled, per-tree full round trip:  "
        f"{wave_round_trip * 1e3:8.1f} ms\n"
        f"  pooled, one ingest + {WAVE} clones:    "
        f"{wave_reuse * 1e3:8.1f} ms\n"
        f"  reuse vs round trip:               "
        f"{wave_round_trip / wave_reuse:8.2f}x\n"
        f"  reuse vs object:                   "
        f"{wave_object / wave_reuse:8.2f}x"
    )
    print()
    print(text)

    # gates first: a failing run must not overwrite the committed
    # artifact from a passing run
    assert render_speedup >= GATE, (
        f"pooled render per-request speedup {render_speedup:.2f}x "
        f"is below the {GATE}x gate"
    )
    assert ast_speedup >= GATE, (
        f"pooled astlang per-request speedup {ast_speedup:.2f}x "
        f"is below the {GATE}x gate"
    )
    assert wave_reuse < wave_round_trip, (
        "pool reuse did not amortize the per-request round trip"
    )
    assert wave_reuse < wave_object, (
        "reused pooled wave is slower than the object wave"
    )
    (results_dir / "pooled_layout.txt").write_text(text + "\n")
