"""Service-level layout plumbing: per-request layout selection, the
service-wide default, and the /stats ``layouts`` counters."""

import repro.service.executor as executor_module
from repro.pipeline import CompileOptions
from repro.service.api import WORKLOADS, TraversalService
from repro.storage import ResultKey, artifact_path, disk_tier_for


def _submit_and_wait(service, **kwargs):
    request_id = service.submit_workload(
        "render", trees=2, size=1, **kwargs
    )
    result = service.result(request_id, timeout=60)
    assert result.ok, result.error
    return [t.summary for t in result.trees]


class TestLayoutCounters:
    def test_counts_follow_explicit_request_layouts(self):
        with TraversalService(workers=1, backend="inline") as service:
            object_summaries = _submit_and_wait(service)
            pooled_summaries = _submit_and_wait(service, layout="pooled")
            assert pooled_summaries == object_summaries
            assert service.stats()["layouts"] == {
                "object": 1,
                "pooled": 1,
            }

    def test_service_default_fills_unspecified_requests(self):
        with TraversalService(workers=1, backend="inline") as baseline:
            expected = _submit_and_wait(baseline)
        with TraversalService(
            workers=1, backend="inline", layout="pooled"
        ) as service:
            # no layout in the request: the service default applies —
            # and the pooled run still produces object-identical results
            assert _submit_and_wait(service) == expected
            _submit_and_wait(service, layout="pooled")
            assert service.stats()["layouts"] == {"pooled": 2}

    def test_explicit_object_request_on_a_pooled_service_runs_object(
        self, monkeypatch
    ):
        # an explicit "object" is a choice, not an unset field: the
        # pooled service default must not overwrite it
        layouts = []
        original = executor_module.pipeline_compile

        def spy(workload, options=None, **kwargs):
            layouts.append(options.layout)
            return original(workload, options=options, **kwargs)

        monkeypatch.setattr(executor_module, "pipeline_compile", spy)
        with TraversalService(
            workers=1, backend="inline", layout="pooled"
        ) as service:
            _submit_and_wait(service, layout="object")
            assert service.stats()["layouts"] == {"object": 1}
        assert layouts == ["object"]


class TestRecompileLayout:
    def test_recompile_rebuilds_the_served_layout(self, tmp_path):
        store = str(tmp_path)
        with TraversalService(
            workers=1, backend="inline", cache_dir=store, layout="pooled"
        ) as service:
            service.recompile_workload("render")
        source_hash = WORKLOADS["render"].workload().source_hash()
        disk = disk_tier_for(store)

        def stored(layout):
            options = CompileOptions(layout=layout)
            key = ResultKey.of(source_hash, options)
            return (disk.dir / artifact_path("result", key)).exists()

        assert stored("pooled")
        assert not stored("object")
