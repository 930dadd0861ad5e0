"""Tiered storage benchmark: cold vs warm-disk vs peer-served compiles.

The multi-host claim behind the tiered store (ISSUE 5): a process whose
only warm source is a *peer* — another host's store, reached through a
:class:`~repro.storage.PeerTier` — compiles nearly as fast as one with
a warm local disk store, and an order of magnitude faster than a cold
compile. Three child-process configurations, identical except for their
storage topology:

* **cold** — a fresh store directory per round: the full
  parse→fuse→emit pipeline.
* **warm disk** — a pre-populated local ``cache_dir``: one file read
  plus an unpickle.
* **peer** — a fresh, empty local ``cache_dir`` plus ``peers=[seeded
  store]``: the peer read, then read-through *promotion* into the local
  disk and memory tiers (so the next process is locally warm).

Every child pre-imports all of ``repro`` before its timer starts
(single-CPU host: first-import noise would otherwise pollute the cold
numbers — see the same fix in ``test_service_throughput.py``). The
configurations take turns, one child each per round, so a stretch of
load from other processes on a shared host lands on every series alike
rather than on whichever series was being measured when it hit.

Acceptance: peer-served <= 2x warm-disk, and >= 10x faster than cold.
Results land in ``benchmark_results/storage_tiers.txt``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

FOREST_PAGES = 2
ROUNDS = 7
COLD_ROUNDS = 4

_CHILD = textwrap.dedent(
    """
    import importlib, pkgutil, sys, time
    # pre-import everything so the timer measures compile work, not
    # first-import cost (see module docstring)
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

    cache_dir = sys.argv[1]
    peers = tuple(sys.argv[2:])
    workload = render_workload()
    options = CompileOptions(cache_dir=cache_dir, peers=peers)
    start = time.perf_counter()
    result = pipeline_compile(
        workload, options=options, cache=MemoryTier(),
    )
    seconds = time.perf_counter() - start
    # prove the artifact actually runs in this process
    heap = Heap(result.program)
    root = build_document(
        result.program, heap, replicated_pages_spec(2)
    )
    result.compiled_fused.run_fused(heap, root, DEFAULT_GLOBALS)
    assert root.snapshot(result.program)
    print(f"{seconds:.6f} {int(result.cache_hit)}")
    """
)


def _child_compile_seconds(cache_dir: str, *peers: str):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, cache_dir, *peers],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, hit = proc.stdout.split()
    return float(seconds), bool(int(hit))


def test_peer_tier_within_2x_of_warm_disk_and_10x_over_cold(
    results_dir, tmp_path
):
    seeded = str(tmp_path / "seeded-store")

    # seed the "other host's" store (also the cold baseline's 1st round)
    cold_series = []
    cold_s, cold_hit = _child_compile_seconds(seeded)
    assert not cold_hit
    cold_series.append(cold_s)

    warm_series = []
    peer_series = []
    for i in range(ROUNDS):
        s, hit = _child_compile_seconds(seeded)
        assert hit
        warm_series.append(s)
        # a fresh local store every round: the peer path must be
        # measured as a first contact, not a promoted local re-hit
        s, hit = _child_compile_seconds(
            str(tmp_path / f"peer-local-{i}"), seeded
        )
        assert hit
        peer_series.append(s)
        if len(cold_series) < COLD_ROUNDS:
            s, hit = _child_compile_seconds(str(tmp_path / f"cold-{i}"))
            assert not hit
            cold_series.append(s)

    # promotion check: the peer round's local store is now warm on its
    # own — a rerun against it without the peer must hit
    s, hit = _child_compile_seconds(str(tmp_path / "peer-local-0"))
    assert hit, "peer hit was not promoted into the local store"

    cold_min = min(cold_series)
    warm_min = min(warm_series)
    peer_min = min(peer_series)
    text = (
        "Tiered storage, cross-process (render workload, fresh process "
        "per measurement, single core)\n"
        f"cold compile (empty tiers):      {cold_min * 1e3:8.1f} ms "
        f"(best of {COLD_ROUNDS})\n"
        f"warm local disk tier:            {warm_min * 1e3:8.1f} ms "
        f"(best of {ROUNDS})\n"
        f"peer tier (fresh local store):   {peer_min * 1e3:8.1f} ms "
        f"(best of {ROUNDS}; promoted into local tiers)\n"
        f"peer vs warm disk:               {peer_min / warm_min:8.2f}x "
        "(<= 2x required)\n"
        f"cold vs peer:                    {cold_min / peer_min:8.1f}x "
        "(>= 10x required)\n"
        "post-promotion rerun without the peer: local hit"
    )
    print()
    print(text)
    assert peer_min <= 2.0 * warm_min, (
        f"peer-served compile {peer_min * 1e3:.1f} ms is not within 2x "
        f"of warm-disk {warm_min * 1e3:.1f} ms"
    )
    assert cold_min >= 10.0 * peer_min, (
        f"peer-served compile {peer_min * 1e3:.1f} ms is not 10x faster "
        f"than cold {cold_min * 1e3:.1f} ms"
    )
    # write only after the gates: a failing run must not overwrite a
    # passing run's committed artifact
    (results_dir / "storage_tiers.txt").write_text(text + "\n")
