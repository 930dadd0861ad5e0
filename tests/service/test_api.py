"""Service facade and HTTP front end."""

import gc
import json
import threading
import weakref
import urllib.error
import urllib.request

import pytest

from repro.service.api import (
    WORKLOADS,
    TraversalService,
    make_server,
)


class TestFacade:
    def test_submit_workload_and_await(self):
        with TraversalService(workers=2, backend="thread") as service:
            request_id = service.submit_workload("render", trees=4, pages=2)
            result = service.result(request_id, timeout=60)
            assert result.ok
            assert len(result.trees) == 4
            state = service.poll(request_id)
            assert state["state"] == "done"
            assert state["trees"] == 4

    def test_unknown_workload_rejected(self):
        with TraversalService(workers=1, backend="inline") as service:
            with pytest.raises(KeyError, match="unknown workload"):
                service.submit_workload("nope")

    def test_unknown_request_id(self):
        with TraversalService(workers=1, backend="inline") as service:
            assert service.poll(999)["state"] == "unknown"
            with pytest.raises(KeyError):
                service.result(999)

    def test_stats_include_store_when_persistent(
        self, tmp_path, monkeypatch
    ):
        # the service's session over an empty memory tier of its own: a
        # render result already in the process-wide tier would serve
        # the request before it reached the store
        from repro.api import session
        from repro.storage import MemoryTier

        monkeypatch.setattr(session, "GLOBAL_CACHE", MemoryTier())
        with TraversalService(
            workers=1, backend="thread", cache_dir=str(tmp_path)
        ) as service:
            request_id = service.submit_workload("render", trees=2, pages=2)
            service.result(request_id, timeout=60)
            stats = service.stats()
        assert stats["executor"]["completed_trees"] == 2
        assert stats["store"]["spills"] == 1
        assert "render" in stats["workloads"]

    def test_registry_entries_are_described(self):
        for name, spec in WORKLOADS.items():
            assert spec.name == name
            assert spec.description


class _Client:
    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def get(self, path):
        try:
            with urllib.request.urlopen(
                self.base + path, timeout=10
            ) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def post(self, path, payload=None):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload or {}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture()
def http_service():
    service = TraversalService(workers=2, backend="thread")
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield _Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestHTTP:
    def test_healthz(self, http_service):
        assert http_service.get("/healthz") == (200, {"ok": True})

    def test_submit_poll_stats_roundtrip(self, http_service):
        status, submitted = http_service.post(
            "/submit", {"workload": "render", "trees": 5, "pages": 2}
        )
        assert status == 200
        request_id = submitted["request_id"]
        for _ in range(200):
            status, state = http_service.get(f"/result/{request_id}")
            if state["state"] != "pending":
                break
        assert state["state"] == "done"
        assert state["trees"] == 5
        assert len(state["summaries"]) == 3  # truncated preview
        status, stats = http_service.get("/stats")
        assert status == 200
        assert stats["executor"]["completed_trees"] >= 5
        assert stats["executor"]["tree_latency"]["p99"] > 0

    def test_bad_submissions_are_400(self, http_service):
        status, body = http_service.post("/submit", {"workload": "nope"})
        assert status == 400
        assert "unknown workload" in body["error"]
        status, _ = http_service.post("/submit", {"trees": 3})
        assert status == 400

    def test_unknown_workload_errors_carry_the_plain_message(
        self, http_service
    ):
        # a KeyError's str() is its repr: the body must carry the
        # message itself, not a quoted copy of it
        for route in ("/submit", "/recompile"):
            status, body = http_service.post(route, {"workload": "nope"})
            assert status == 400
            assert body["error"].startswith("unknown workload 'nope'; have")

    def test_unknown_routes_are_404(self, http_service):
        status, _ = http_service.get("/nope")
        assert status == 404
        status, _ = http_service.post("/nope")
        assert status == 404

    def test_bad_result_id_is_400(self, http_service):
        status, _ = http_service.get("/result/xyz")
        assert status == 400


class TestTicketRetention:
    def test_completed_tickets_age_out_beyond_the_cap(self):
        with TraversalService(
            workers=1, backend="thread", max_tickets=2
        ) as service:
            first = service.submit_workload("render", trees=1, pages=1)
            service.result(first, timeout=60)
            second = service.submit_workload("render", trees=1, pages=1)
            service.result(second, timeout=60)
            third = service.submit_workload("render", trees=1, pages=1)
            service.result(third, timeout=60)
            # the oldest completed ticket was evicted to admit the third
            assert service.poll(first)["state"] == "unknown"
            assert service.poll(third)["state"] == "done"


class TestMetricsViews:
    """A service's registry views live exactly as long as the service."""

    def test_a_closed_service_is_collectable(self):
        service = TraversalService(workers=1, backend="inline")
        ref = weakref.ref(service)
        service.close()
        del service
        gc.collect()
        assert ref() is None

    def test_a_storeless_service_inherits_no_store_gauges(self, tmp_path):
        with TraversalService(
            workers=1, backend="inline", cache_dir=str(tmp_path)
        ) as stored:
            assert "repro_store_" in stored.metrics_text()
        with TraversalService(workers=1, backend="inline") as plain:
            assert "repro_store_" not in plain.metrics_text()

    def test_closing_the_older_service_keeps_the_newer_ones_gauges(self):
        older = TraversalService(workers=1, backend="inline")
        newer = TraversalService(workers=1, backend="inline")
        older.close()
        assert "repro_service_requests_total" in newer.metrics_text()
        newer.close()
        assert "repro_service_" not in newer.metrics_text()
