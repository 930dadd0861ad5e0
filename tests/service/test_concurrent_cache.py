"""Concurrent access to the compile cache and the on-disk store.

Two dimensions, per the PR checklist:

* **threads** — the executor's thread backend funnels shards through
  one shared ``MemoryTier``; racing compiles of the same program must
  not corrupt it and every racer must get a usable artifact.
* **processes** — two processes spilling the same key into one store
  directory must both succeed (atomic rename: a reader can never see a
  torn file) and both end up with runnable artifacts.
"""

import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

from repro.pipeline import compile as pipeline_compile
from repro.storage import ResultKey, disk_tier_for
from repro.workloads.render import RENDER_PURE_IMPLS, RENDER_SOURCE

from tests.fixtures import FIG2_SOURCE, fresh_store, source_workload


class TestThreadedAccess:
    def test_racing_compiles_share_the_store_without_corruption(
        self, tmp_path
    ):
        store = fresh_store(tmp_path)

        def compile_once(_):
            return pipeline_compile(FIG2_SOURCE, store=store)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(compile_once, range(16)))

        # every thread got a complete, runnable record
        assert all(r.fused is not None for r in results)
        assert all(r.compiled_fused is not None for r in results)
        assert len({r.source_hash for r in results}) == 1
        # the store holds exactly the one artifact, and it loads
        store = disk_tier_for(str(tmp_path))
        assert len(store) == 1
        reloaded = store.fetch(
            "result",
            ResultKey.of(results[0].source_hash, results[0].options),
        )
        assert reloaded is not None
        assert reloaded[0].fused_source == results[0].fused_source

    def test_racing_spills_of_one_result_are_atomic(self, tmp_path):
        result = pipeline_compile(FIG2_SOURCE, store=fresh_store(tmp_path))
        store = disk_tier_for(str(tmp_path))
        key = ResultKey.of(result.source_hash, result.options)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(
                pool.map(
                    lambda _: store.store("result", key, result), range(32)
                )
            )
        assert all(outcomes)
        assert len(store) == 1  # last writer wins, no tmp debris
        leftovers = [
            p for p in store.dir.rglob("*") if p.name.startswith(".spill-")
        ]
        assert leftovers == []
        assert store.fetch("result", key) is not None


_CHILD = textwrap.dedent(
    """
    import sys
    from repro.api import Workload
    from repro.pipeline import compile as pipeline_compile
    from repro.storage import MemoryTier, TieredStore, disk_tier_for
    from repro.workloads.render import (
        DEFAULT_GLOBALS, RENDER_PURE_IMPLS, RENDER_SOURCE,
        build_document, replicated_pages_spec,
    )
    from repro.runtime import Heap

    result = pipeline_compile(
        Workload.from_source(
            "render", RENDER_SOURCE, build_document,
            pure_impls=RENDER_PURE_IMPLS,
        ),
        store=TieredStore([MemoryTier(), disk_tier_for(sys.argv[1])]),
    )
    heap = Heap(result.program)
    root = build_document(result.program, heap, replicated_pages_spec(2))
    result.compiled_fused.run_fused(heap, root, DEFAULT_GLOBALS)
    assert root.snapshot(result.program)
    print("ok", result.cache_hit)
    """
)


class TestCrossProcessAccess:
    def test_two_processes_race_one_store(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(tmp_path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        outputs = [child.communicate(timeout=120) for child in children]
        for child, (out, err) in zip(children, outputs):
            assert child.returncode == 0, err
            assert out.startswith("ok"), out
        # both racers left exactly one complete artifact behind, and a
        # third process-equivalent (fresh cache) loads and runs it
        store = disk_tier_for(str(tmp_path))
        assert len(store) == 1
        result = pipeline_compile(
            source_workload(RENDER_SOURCE, RENDER_PURE_IMPLS),
            store=fresh_store(tmp_path),
        )
        assert result.cache_hit
