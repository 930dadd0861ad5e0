"""The service's storage endpoints: /artifact, /gc, /recompile.

The ``/artifact`` routes are what turn a running ``repro serve`` into a
:class:`~repro.storage.PeerTier` for other hosts, so they are tested
both raw (byte-identical to the stored file) and end to end (a compile
in this process going warm through the live server).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.service.api import TraversalService, make_server
from repro.storage import disk_tier_for
from repro.storage import MemoryTier, PeerTier, ResultKey

from tests.fixtures import FIG2_SOURCE


@pytest.fixture()
def persistent_service(tmp_path):
    """A live HTTP service over a store pre-populated with one FIG2
    compile; yields (client base url, seeded result, store)."""
    cache_dir = str(tmp_path / "store")
    seeded = pipeline_compile(
        FIG2_SOURCE,
        options=CompileOptions(cache_dir=cache_dir),
        cache=MemoryTier(),
    )
    service = TraversalService(
        workers=1, backend="thread", cache_dir=cache_dir
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, seeded, disk_tier_for(cache_dir)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestArtifactEndpoint:
    def test_result_bytes_are_byte_identical_to_the_stored_file(
        self, persistent_service
    ):
        base, seeded, store = persistent_service
        output_hash = seeded.options.output_hash()
        status, body = _get(
            f"{base}/artifact/result/{seeded.source_hash}/{output_hash}"
        )
        assert status == 200
        assert body == store.path_for(
            seeded.source_hash, output_hash
        ).read_bytes()

    def test_unit_bytes_round_trip(self, persistent_service):
        base, seeded, store = persistent_service
        unit_file = next(store.dir.glob("units/fusion/*/*.pkl"))
        status, body = _get(
            f"{base}/artifact/unit/fusion/{unit_file.stem}"
        )
        assert status == 200
        assert body == unit_file.read_bytes()

    def test_missing_and_malformed_keys_are_404(self, persistent_service):
        base, _, _ = persistent_service
        status, _ = _get(f"{base}/artifact/result/{'0' * 64}/{'1' * 64}")
        assert status == 404
        # traversal-shaped keys never reach the filesystem
        status, _ = _get(f"{base}/artifact/unit/..%2f..%2fetc/passwd")
        assert status == 404
        status, _ = _get(f"{base}/artifact/result/short/keys")
        assert status == 404

    def test_live_server_serves_as_a_peer_tier(self, persistent_service):
        base, seeded, _ = persistent_service
        peer = PeerTier(base)
        key = ResultKey.of(seeded.source_hash, seeded.options)
        fetched = peer.get_result(key)
        assert fetched is not None
        assert fetched.fused_source == seeded.fused_source
        assert peer.hits == 1

    def test_cross_host_compile_goes_warm_through_http(
        self, persistent_service, tmp_path
    ):
        base, seeded, _ = persistent_service
        # "another host": fresh memory tier, its own empty store, the
        # server as its only peer
        warm = pipeline_compile(
            FIG2_SOURCE,
            options=CompileOptions(
                cache_dir=str(tmp_path / "other-host"), peers=(base,)
            ),
            cache=MemoryTier(),
        )
        assert warm.cache_hit
        assert warm.fused_source == seeded.fused_source


class TestGCEndpoint:
    def test_pass_scoped_gc_over_http(self, persistent_service):
        base, _, store = persistent_service
        assert list(store.dir.glob("units/fusion/*/*.pkl"))
        status, summary = _post(f"{base}/gc", {"pass": "fusion"})
        assert status == 200
        assert summary["total"]["removed"] > 0
        assert not list(store.dir.glob("units/fusion/*/*.pkl"))
        # other passes' units survived
        assert list(store.dir.glob("units/emit/*/*.pkl"))

    def test_bare_gc_is_400(self, persistent_service):
        base, _, _ = persistent_service
        status, body = _post(f"{base}/gc", {})
        assert status == 400
        assert "gc needs" in body["error"]

    def test_traversal_shaped_pass_is_400_and_deletes_nothing(
        self, persistent_service
    ):
        base, _, store = persistent_service
        before = store.stats()["unit_entries"] + store.stats()["entries"]
        status, body = _post(
            f"{base}/gc", {"pass": "../../../../etc"}
        )
        assert status == 400
        assert "invalid pass name" in body["error"]
        after = store.stats()["unit_entries"] + store.stats()["entries"]
        assert after == before


class TestRecompileEndpoint:
    def test_returns_unit_report_json(self, persistent_service):
        base, _, _ = persistent_service
        status, body = _post(
            f"{base}/recompile", {"workload": "render"}
        )
        assert status == 200
        assert body["workload"] == "render"
        assert not body["cache_hit"]  # whole-result cache was bypassed
        for pass_name in ("access-analysis", "dependence", "fusion", "emit"):
            assert pass_name in body["passes"]
            assert pass_name in body["unit_report"]
        fusion = body["passes"]["fusion"]
        assert fusion["units"] == fusion["hits"] + fusion["misses"]

    def test_second_recompile_reports_all_hits(self, persistent_service):
        base, _, _ = persistent_service
        _post(f"{base}/recompile", {"workload": "render"})
        status, body = _post(
            f"{base}/recompile", {"workload": "render"}
        )
        assert status == 200
        # every unit was just published: the rebuild reuses all of them
        assert body["passes"]["fusion"]["misses"] == 0
        assert body["passes"]["emit"]["misses"] == 0

    def test_unknown_workload_is_400(self, persistent_service):
        base, _, _ = persistent_service
        status, body = _post(f"{base}/recompile", {"workload": "nope"})
        assert status == 400
        assert "unknown workload" in body["error"]

    def test_option_overrides_are_rejected_over_http(
        self, persistent_service, tmp_path
    ):
        # CompileOptions patches (cache_dir: write anywhere; peers:
        # server-side fetches of arbitrary URLs) must not be reachable
        # from the network
        base, _, _ = persistent_service
        target = str(tmp_path / "attacker-chosen")
        status, body = _post(
            f"{base}/recompile",
            {"workload": "render", "cache_dir": target},
        )
        assert status == 400
        assert "unsupported fields" in body["error"]
        import os

        assert not os.path.exists(target)
