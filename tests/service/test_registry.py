"""The expanded workload registry: all four case studies are servable."""

import json
import urllib.request

from repro.service.api import WORKLOADS, TraversalService, make_server


class TestRegistry:
    def test_all_four_case_studies_registered(self):
        assert {"render", "astlang", "kdtree", "fmm"} <= set(WORKLOADS)
        for spec in WORKLOADS.values():
            assert spec.description
            assert spec.size_kwarg

    def test_registry_descriptions_match_the_bundles(self):
        # the registry duplicates each factory's description so that
        # importing the registry stays cheap; this pins the two copies
        # together so they cannot drift
        for spec in WORKLOADS.values():
            assert spec.description == spec.workload().description

    def test_workload_bundles_are_memoized(self):
        spec = WORKLOADS["kdtree"]
        assert spec.workload() is spec.workload()

    def test_kdtree_runs_through_the_service(self):
        with TraversalService(workers=1, backend="inline") as service:
            request_id = service.submit_workload(
                "kdtree", trees=2, depth=2
            )
            result = service.result(request_id, timeout=120)
        assert result.ok
        assert len(result.trees) == 2

    def test_fmm_runs_through_the_service(self):
        with TraversalService(workers=1, backend="inline") as service:
            request_id = service.submit_workload(
                "fmm", trees=2, particles=16
            )
            result = service.result(request_id, timeout=120)
        assert result.ok
        assert len(result.trees) == 2

    def test_astlang_runs_through_the_service(self):
        with TraversalService(workers=1, backend="inline") as service:
            request_id = service.submit_workload(
                "astlang", trees=1, functions=2
            )
            result = service.result(request_id, timeout=120)
        assert result.ok

    def test_generic_size_knob(self):
        # `size` maps onto each workload's own vocabulary, so generic
        # callers (the CLI's --size, dashboards) need no per-workload
        # knowledge
        kdtree, fmm = WORKLOADS["kdtree"], WORKLOADS["fmm"]
        request = kdtree.workload().request(1, **kdtree.size_kwargs(2))
        assert request.trees[0][0] == 2
        request = fmm.workload().request(1, **fmm.size_kwargs(8))
        assert len(request.trees[0]) == 8

    def test_http_submit_new_workloads(self):
        with TraversalService(workers=1, backend="thread") as service:
            server = make_server(service, port=0)
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            import threading

            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                body = json.dumps(
                    {"workload": "kdtree", "trees": 1, "depth": 2}
                ).encode()
                with urllib.request.urlopen(
                    urllib.request.Request(
                        base + "/submit",
                        data=body,
                        headers={"Content-Type": "application/json"},
                    ),
                    timeout=30,
                ) as resp:
                    request_id = json.loads(resp.read())["request_id"]
                assert service.result(request_id, timeout=120).ok
            finally:
                server.shutdown()
                server.server_close()
