"""Service observability surfaces: /stats identity fields, the
Prometheus /metrics exposition, and per-request /trace lookup."""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro import obs
from repro.service.api import TraversalService, make_server


@pytest.fixture
def service():
    svc = TraversalService(workers=1, backend="inline")
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture
def server(service):
    srv = make_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()


def get(base, path):
    return urllib.request.urlopen(base + path, timeout=30)


def post(base, path, doc):
    request = urllib.request.Request(
        base + path, data=json.dumps(doc).encode(), method="POST"
    )
    return json.loads(
        urllib.request.urlopen(request, timeout=30).read().decode()
    )


class TestStatsIdentity:
    def test_stats_pins_version_uptime_and_request_count(self, service):
        stats = service.stats()
        assert stats["version"] == repro.__version__
        assert stats["uptime_seconds"] >= 0.0
        assert stats["requests_total"] == 0
        # the legacy keys all survive alongside the new identity block
        for key in (
            "executor", "compile_cache", "workloads", "layouts",
            "store", "storage",
        ):
            assert key in stats

    def test_stats_key_set_is_pinned(self, service, tmp_path):
        keys = {
            "version", "uptime_seconds", "requests_total", "executor",
            "compile_cache", "workloads", "layouts", "modes",
            "interpreted_requests_total", "compiled_requests_total",
            "store", "storage",
        }
        assert set(service.stats()) == keys
        with TraversalService(
            workers=1, backend="inline", cache_dir=str(tmp_path)
        ) as persistent:
            assert set(persistent.stats()) == keys

    def test_stats_walk_the_store_once(self, tmp_path, monkeypatch):
        from repro.storage.disk import DiskTier

        walks = []
        original = DiskTier.stats

        def counting(self):
            walks.append(self.root)
            return original(self)

        monkeypatch.setattr(DiskTier, "stats", counting)
        with TraversalService(
            workers=1, backend="inline", cache_dir=str(tmp_path)
        ) as persistent:
            stats = persistent.stats()
        assert len(walks) == 1
        assert stats["store"]["entries"] == 0

    def test_requests_total_is_monotonic(self, service):
        spec_submit = lambda: service.submit_workload(
            "kdtree", trees=1, size=2
        )
        rid = spec_submit()
        service.result(rid, timeout=60)
        assert service.stats()["requests_total"] == 1
        rid = spec_submit()
        service.result(rid, timeout=60)
        assert service.stats()["requests_total"] == 2

    def test_http_stats_carries_identity(self, server):
        stats = json.loads(get(server, "/stats").read().decode())
        assert stats["version"] == repro.__version__
        assert stats["requests_total"] == 0
        assert stats["uptime_seconds"] >= 0.0


class TestMetricsEndpoint:
    def test_metrics_text_parses_and_names_subsystems(self, server):
        response = get(server, "/metrics")
        assert response.headers["Content-Type"].startswith(
            "text/plain"
        )
        text = response.read().decode()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample line ends in a number
        assert "# TYPE repro_pass_seconds histogram" in text
        assert "# TYPE repro_storage_lookups_total counter" in text
        assert "repro_service_requests_total" in text
        assert "repro_service_uptime_seconds" in text
        # the legacy compile-cache stats() surface as a view
        assert "repro_cache_" in text

    def test_metrics_reflect_executed_work(self, service):
        rid = service.submit_workload("kdtree", trees=2, size=2)
        service.result(rid, timeout=60)
        text = service.metrics_text()
        sample = next(
            line for line in text.splitlines()
            if line.startswith("repro_exec_trees_total")
        )
        assert float(sample.rsplit(" ", 1)[1]) >= 2


class TestTraceEndpoint:
    def test_submit_returns_trace_id_and_spans_serve(self, server):
        obs.enable()
        try:
            reply = post(
                server, "/submit",
                {"workload": "kdtree", "trees": 2, "size": 2},
            )
            assert reply["trace_id"]
            # wait for completion so the request's spans are buffered
            done = json.loads(
                get(server, f"/result/{reply['request_id']}")
                .read().decode()
            )
            while done["state"] == "pending":
                done = json.loads(
                    get(server, f"/result/{reply['request_id']}")
                    .read().decode()
                )
            assert done["state"] == "done"
            assert done["trace_id"] == reply["trace_id"]
            trace = json.loads(
                get(server, f"/trace/{reply['trace_id']}")
                .read().decode()
            )
            names = {s["name"] for s in trace["spans"]}
            assert "service.submit" in names
            assert "exec.shard" in names
        finally:
            obs.disable()

    def test_unknown_trace_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as failure:
            get(server, "/trace/deadbeef00000000")
        assert failure.value.code == 404

    def test_untraced_submit_has_null_trace_id(self, server):
        # process tracer off: no trace is minted, the field is null
        reply = post(
            server, "/submit",
            {"workload": "kdtree", "trees": 1, "size": 2},
        )
        assert reply["trace_id"] is None
