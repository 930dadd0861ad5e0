"""Batch executor: correctness across backends, metrics, error paths."""

from dataclasses import replace

import pytest

from repro.api import Workload
from repro.service.batching import ExecRequest
from repro.service.executor import BatchExecutor

from repro.workloads.render import (
    DEFAULT_GLOBALS,
    RENDER_PURE_IMPLS,
    RENDER_SOURCE,
    build_document,
    replicated_pages_spec,
)

RENDER = Workload.from_source(
    "render",
    RENDER_SOURCE,
    build_document,
    pure_impls=RENDER_PURE_IMPLS,
    globals_map=dict(DEFAULT_GLOBALS),
)


def render_request(trees=6, pages=2, source=RENDER_SOURCE,
                   build_tree=build_document, **kw):
    return ExecRequest(
        workload=replace(RENDER, source=source, build_tree=build_tree),
        trees=[replicated_pages_spec(pages) for _ in range(trees)],
        **kw,
    )


def reference_summaries(trees=6, pages=2):
    """Direct (no executor) execution of the same forest."""
    from repro.pipeline import compile as pipeline_compile
    from repro.runtime import Heap
    from repro.service.batching import default_collect

    result = pipeline_compile(RENDER)
    out = []
    for _ in range(trees):
        heap = Heap(result.program)
        root = build_document(
            result.program, heap, replicated_pages_spec(pages)
        )
        result.compiled_fused.run_fused(heap, root, DEFAULT_GLOBALS)
        out.append(default_collect(result.program, heap, root))
    return out


class TestBackendsAgree:
    @pytest.mark.parametrize("backend,workers", [
        ("inline", 1),
        ("thread", 2),
        ("process", 2),
    ])
    def test_matches_direct_execution(self, backend, workers):
        expected = reference_summaries()
        with BatchExecutor(workers=workers, backend=backend) as executor:
            [result] = executor.run([render_request()])
        assert result.ok, result.error
        assert [t.summary for t in result.trees] == expected
        assert [t.index for t in result.trees] == list(range(6))

    def test_unfused_baseline_agrees_with_fused(self):
        with BatchExecutor(workers=1, backend="inline") as executor:
            fused, unfused = executor.run(
                [render_request(fused=True), render_request(fused=False)]
            )
        assert fused.ok and unfused.ok
        assert [t.summary["snapshot_sha"] for t in fused.trees] == [
            t.summary["snapshot_sha"] for t in unfused.trees
        ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            BatchExecutor(backend="gpu")


class TestBatchingBehavior:
    def test_shared_artifact_compiles_once_per_wave(self):
        with BatchExecutor(workers=2, backend="thread") as executor:
            results = executor.run([render_request(), render_request()])
            assert all(r.ok for r in results)
            # one group, one batch record, both requests inside it
            assert len(executor.batches) == 1
            assert executor.batches[0].requests == 2
            assert executor.batches[0].trees == 12

    def test_mixed_artifacts_split_batches(self):
        with BatchExecutor(workers=1, backend="inline") as executor:
            results = executor.run(
                [
                    render_request(trees=2),
                    render_request(trees=2, fused=False),
                ]
            )
        assert all(r.ok for r in results)
        # fused flag does not change the compile key; both requests
        # share one artifact group
        assert len(executor.batches) == 1

    def test_async_submissions_coalesce(self):
        with BatchExecutor(
            workers=2, backend="thread", linger_seconds=0.05
        ) as executor:
            tickets = [executor.submit(render_request(trees=2))
                       for _ in range(4)]
            results = [t.result(timeout=60) for t in tickets]
        assert all(r.ok for r in results)
        assert executor.stats()["completed_requests"] == 4
        # the linger window batches the burst into few waves
        assert executor.stats()["waves"] <= 2


class TestMetrics:
    def test_stats_shape_and_latency_percentiles(self):
        with BatchExecutor(workers=2, backend="thread") as executor:
            executor.run([render_request(trees=8)])
            stats = executor.stats()
        assert stats["completed_trees"] == 8
        latency = stats["tree_latency"]
        assert latency["count"] == 8
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
        [batch] = stats["recent_batches"]
        assert batch["trees"] == 8
        assert batch["shards"] >= 2
        assert batch["queue_depth"] == 0
        assert batch["compile_seconds"] > 0

    def test_failed_requests_counted(self):
        with BatchExecutor(workers=1, backend="inline") as executor:
            [result] = executor.run(
                [render_request(source="not grafter at all !!")]
            )
        assert not result.ok
        assert "compile failed" in result.error
        assert executor.stats()["failed_requests"] == 1


class TestErrorPaths:
    def test_shard_failure_is_contained(self):
        def explode(program, heap, spec):
            raise RuntimeError("boom")

        bad = render_request(trees=1, pages=1, build_tree=explode)
        good = render_request(trees=2)
        with BatchExecutor(workers=1, backend="inline") as executor:
            bad_result, good_result = executor.run([bad, good])
        assert not bad_result.ok
        assert "shard failed" in bad_result.error
        assert good_result.ok
        assert len(good_result.trees) == 2

    def test_submit_after_close_rejected(self):
        executor = BatchExecutor(workers=1, backend="inline")
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(render_request())


class TestCacheDirFlows:
    def test_executor_cache_dir_applies_to_requests(self, tmp_path):
        from repro.storage import disk_tier_for

        with BatchExecutor(
            workers=1, backend="inline", cache_dir=str(tmp_path)
        ) as executor:
            [result] = executor.run([render_request(trees=1)])
        assert result.ok
        assert len(disk_tier_for(str(tmp_path))) == 1

    def test_request_cache_dir_wins_over_executor(self, tmp_path):
        from repro.pipeline import CompileOptions
        from repro.storage import disk_tier_for

        mine = tmp_path / "mine"
        other = tmp_path / "other"
        req = render_request(
            trees=1, options=CompileOptions(cache_dir=str(mine))
        )
        with BatchExecutor(
            workers=1, backend="inline", cache_dir=str(other)
        ) as executor:
            [result] = executor.run([req])
        assert result.ok
        assert len(disk_tier_for(str(mine))) == 1
        assert len(disk_tier_for(str(other))) == 0


class TestLifecycleAndOptions:
    def test_emit_false_request_fails_with_clear_message(self):
        from repro.pipeline import CompileOptions

        with BatchExecutor(workers=1, backend="inline") as executor:
            [result] = executor.run(
                [
                    render_request(
                        trees=1,
                        options=CompileOptions(emit=False, use_cache=False),
                    )
                ]
            )
        assert not result.ok
        assert "emit=True" in result.error

    def test_close_fails_still_queued_tickets(self):
        from concurrent.futures import Future

        import pytest as _pytest

        executor = BatchExecutor(workers=1, backend="inline")
        # enqueue directly (no dispatcher) to model requests the
        # dispatcher never got to before shutdown
        ticket: Future = Future()
        executor._pending.put((render_request(trees=1), ticket))
        executor.close()
        with _pytest.raises(RuntimeError, match="closed before execution"):
            ticket.result(timeout=1)
