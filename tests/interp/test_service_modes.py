"""The interpret serving tier: ``mode="interpret"`` through every front
door — ``Session.run``, the batch executor, the HTTP ``/submit`` body —
plus the grouping, counting, and tracing contracts around it."""

import json
import threading
import urllib.request

import pytest

import repro
from repro import obs
from repro.service.api import TraversalService, make_server
from repro.service.batching import group_requests
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload


class TestSessionMode:
    def test_interpret_matches_compiled_summaries(self):
        with repro.Session() as session:
            interp = session.run(
                render_workload(), trees=3, mode="interpret", pages=2
            )
            compiled = session.run(render_workload(), trees=3, pages=2)
        assert interp.summaries == compiled.summaries

    def test_pooled_interpret_matches_too(self):
        with repro.Session(layout="pooled") as session:
            interp = session.run(
                kdtree_workload(), trees=2, mode="interpret", depth=3
            )
            compiled = session.run(kdtree_workload(), trees=2, depth=3)
        assert interp.summaries == compiled.summaries

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            render_workload().request(1, mode="transpile")


class TestRequestGrouping:
    def test_interpret_requests_group_apart_from_compiled(self):
        workload = render_workload()
        compiled = workload.request(1, pages=2)
        interp = workload.request(1, mode="interpret", pages=2)
        source_hash, compiled_opts = compiled.compile_key()
        interp_hash, interp_opts = interp.compile_key()
        # same program, different tier: one key component shared, the
        # other disjoint — so a wave never makes the interpret request
        # wait on the compile
        assert interp_hash == source_hash
        assert interp_opts != compiled_opts
        assert interp_opts.startswith("interp:")
        groups = group_requests([compiled, interp])
        assert len(groups) == 2

    def test_workload_request_carries_mode(self):
        request = render_workload().request(1, mode="interpret", pages=1)
        assert request.mode == "interpret"


class TestServiceCounters:
    def test_stats_split_interpreted_from_compiled(self):
        with TraversalService(workers=1, backend="inline") as service:
            rid_c = service.submit_workload("render", trees=1, size=1)
            rid_i = service.submit_workload(
                "render", trees=1, size=1, mode="interpret"
            )
            assert service.result(rid_c, timeout=60).ok
            assert service.result(rid_i, timeout=60).ok
            stats = service.stats()
        assert stats["interpreted_requests_total"] == 1
        assert stats["compiled_requests_total"] == 1
        assert stats["modes"] == {"compiled": 1, "interpret": 1}

    def test_http_submit_accepts_mode(self):
        service = TraversalService(workers=1, backend="inline")
        server = make_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            request = urllib.request.Request(
                base + "/submit",
                data=json.dumps(
                    {
                        "workload": "render",
                        "trees": 1,
                        "size": 1,
                        "mode": "interpret",
                    }
                ).encode(),
                method="POST",
            )
            doc = json.loads(
                urllib.request.urlopen(request, timeout=30)
                .read()
                .decode()
            )
            assert service.result(doc["request_id"], timeout=60).ok
            stats = json.loads(
                urllib.request.urlopen(base + "/stats", timeout=30)
                .read()
                .decode()
            )
            assert stats["interpreted_requests_total"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestInterpTracing:
    def test_interp_spans_recorded_under_request_trace(self):
        obs.enable()
        try:
            with TraversalService(
                workers=1, backend="inline"
            ) as service:
                rid = service.submit_workload(
                    "render", trees=1, size=1, mode="interpret"
                )
                assert service.result(rid, timeout=60).ok
                trace_id = service.trace_id_for(rid)
                assert trace_id is not None
                spans = service.trace_spans(trace_id)
        finally:
            obs.disable()
        names = [span["name"] for span in spans]
        assert "interp.run" in names
        shard = next(s for s in names if s == "exec.shard")
        assert shard  # the interp run nests inside normal exec spans
        run_span = next(s for s in spans if s["name"] == "interp.run")
        assert run_span["attrs"]["node_visits"] > 0

    def test_interp_metrics_counted(self):
        before = _counter_value("repro_interp_runs_total")
        with repro.Session() as session:
            session.run(
                render_workload(), trees=2, mode="interpret", pages=1
            )
        after = _counter_value("repro_interp_runs_total")
        assert after - before == 2


def _counter_value(name: str) -> float:
    total = 0.0
    for line in obs.REGISTRY.render_prometheus().splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total
