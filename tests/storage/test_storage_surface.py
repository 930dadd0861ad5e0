"""The storage surface, pinned: what a store, a peer and ``/stats`` see.

Three things outlive any one implementation of the tiers, because
existing stores, remote peers and dashboards depend on them:

* the ``stats()`` key set of every tier and of each
  ``TieredStore.stats()`` record;
* the counter values one scripted sequence leaves behind — a cold
  compile, promotion from disk into a fresh memory tier, a peer hit
  promoted onto an empty local disk, a corrupt file and a missing key;
* where artifacts live under ``v2/`` — a file per result, a pack per
  pass of each compile — and which ``/artifact`` routes a peer asks an
  HTTP server for.
"""

import hashlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.pipeline import compile as pipeline_compile
from repro.storage import (
    DiskTier,
    MemoryTier,
    PeerTier,
    ResultKey,
    TieredStore,
    disk_tier_for,
)

from tests.fixtures import FIG2_SOURCE, fresh_store, stored

MEMORY_KEYS = {
    "entries", "artifacts", "units", "bytes", "max_bytes", "hits",
    "misses", "disk_hits", "unit_hits", "unit_misses", "evictions",
}
DISK_KEYS = {
    "entries", "unit_entries", "bytes", "spills", "spill_skips",
    "spill_errors", "loads", "load_misses", "load_errors", "unit_spills",
    "unit_spill_errors", "unit_loads", "unit_load_misses",
    "unit_load_errors", "evictions", "compactions", "compacted_entries",
    "compacted_bytes", "gc_runs", "gc_removed", "gc_reclaimed_bytes",
}
PEER_KEYS = {
    "target", "transport", "hits", "misses", "errors", "unit_hits",
    "unit_misses", "unit_errors",
}


def _counters(stats: dict) -> dict:
    """A tier's stats without sizes and paths (payload sizes and tmp
    directories differ run to run; the counts must not)."""
    return {
        key: value
        for key, value in stats.items()
        if key not in ("bytes", "max_bytes", "target")
    }


class TestStatsKeys:
    def test_every_tier_reports_todays_keys(self, tmp_path):
        assert set(MemoryTier().stats()) == MEMORY_KEYS
        assert set(DiskTier(str(tmp_path / "d")).stats()) == DISK_KEYS
        directory = PeerTier(str(tmp_path / "p")).stats()
        assert set(directory) == PEER_KEYS
        assert directory["transport"] == "path"
        http = PeerTier("http://127.0.0.1:1").stats()
        assert set(http) == PEER_KEYS
        assert http["transport"] == "http"

    def test_tiered_records_are_labelled_tier_stats(self, tmp_path):
        store = TieredStore([
            MemoryTier(),
            DiskTier(str(tmp_path / "d")),
            PeerTier(str(tmp_path / "p")),
            PeerTier("http://127.0.0.1:1"),
        ])
        records = store.stats()
        assert [record["kind"] for record in records] == [
            "memory", "disk", "peer", "peer",
        ]
        assert [record["label"] for record in records] == [
            "memory",
            f"disk:{tmp_path / 'd'}",
            f"peer:{tmp_path / 'p'}",
            "peer:http://127.0.0.1:1",
        ]
        for record, keys in zip(
            records, (MEMORY_KEYS, DISK_KEYS, PEER_KEYS, PEER_KEYS)
        ):
            assert set(record) == keys | {"label", "kind"}


class TestScriptedCounters:
    def test_counters_after_one_scripted_sequence(self, tmp_path):
        # 1. a cold compile through memory and disk
        memory = MemoryTier()
        disk = disk_tier_for(str(tmp_path / "a"))
        result = pipeline_compile(
            FIG2_SOURCE, store=TieredStore([memory, disk])
        )
        assert _counters(memory.stats()) == {
            "entries": 1, "artifacts": 2, "units": 21, "hits": 0,
            "misses": 1, "disk_hits": 0, "unit_hits": 0,
            "unit_misses": 21, "evictions": 0,
        }
        cold_disk = {
            "entries": 1, "unit_entries": 15, "spills": 1,
            "spill_skips": 0, "spill_errors": 0, "loads": 0,
            "load_misses": 1, "load_errors": 0, "unit_spills": 15,
            "unit_spill_errors": 0, "unit_loads": 0,
            "unit_load_misses": 21, "unit_load_errors": 0,
            "evictions": 0, "compactions": 0, "compacted_entries": 0,
            "compacted_bytes": 0, "gc_runs": 0, "gc_removed": 0,
            "gc_reclaimed_bytes": 0,
        }
        assert _counters(disk.stats()) == cold_disk

        # 2. the result and one unit through a fresh memory tier over
        # the same disk: a promoted result turns the memory miss into
        # a served-from-below hit, a promoted unit into a unit hit
        key = ResultKey.of(result.source_hash, result.options)
        unit = sorted(stored(tmp_path / "a")["fusion"])[0]
        fresh = MemoryTier()
        warm = TieredStore([fresh, disk])
        assert warm.get_result(key) is not None
        artifact, served_by = warm.get_unit("fusion", unit)
        assert served_by is disk
        assert _counters(fresh.stats()) == {
            "entries": 1, "artifacts": 0, "units": 1, "hits": 1,
            "misses": 0, "disk_hits": 1, "unit_hits": 1,
            "unit_misses": 0, "evictions": 0,
        }
        assert _counters(disk.stats()) == {
            **cold_disk, "loads": 1, "unit_loads": 1,
        }

        # 3. a directory-peer hit promoted onto an empty local disk
        local = DiskTier(str(tmp_path / "local"))
        peer = PeerTier(str(tmp_path / "a"))
        near = MemoryTier()
        through_peer = TieredStore([near, local, peer])
        assert through_peer.get_result(key) is not None
        artifact, served_by = through_peer.get_unit("fusion", unit)
        assert served_by is peer
        local_counts = {
            "entries": 1, "unit_entries": 1, "spills": 1,
            "spill_skips": 0, "spill_errors": 0, "loads": 0,
            "load_misses": 1, "load_errors": 0, "unit_spills": 1,
            "unit_spill_errors": 0, "unit_loads": 0,
            "unit_load_misses": 1, "unit_load_errors": 0,
            "evictions": 0, "compactions": 0, "compacted_entries": 0,
            "compacted_bytes": 0, "gc_runs": 0, "gc_removed": 0,
            "gc_reclaimed_bytes": 0,
        }
        assert _counters(local.stats()) == local_counts
        assert _counters(peer.stats()) == {
            "transport": "path", "hits": 1, "misses": 0, "errors": 0,
            "unit_hits": 1, "unit_misses": 0, "unit_errors": 0,
        }
        assert _counters(near.stats()) == {
            "entries": 1, "artifacts": 0, "units": 1, "hits": 1,
            "misses": 0, "disk_hits": 1, "unit_hits": 1,
            "unit_misses": 0, "evictions": 0,
        }

        # 4. one corrupt file (a counted error, deleted) and one
        # missing key (a counted miss on every tier it reaches)
        unit_path, _, _ = local.packs.locate("fusion", unit)
        unit_path.write_bytes(b"not a pickle")
        assert TieredStore([local]).get_unit("fusion", unit) is None
        assert not unit_path.exists()
        missing = ResultKey("0" * 64, "1" * 64)
        assert through_peer.get_result(missing) is None
        assert _counters(local.stats()) == {
            **local_counts, "unit_entries": 0, "load_misses": 2,
            "unit_load_errors": 1,
        }
        assert _counters(peer.stats()) == {
            "transport": "path", "hits": 1, "misses": 1, "errors": 0,
            "unit_hits": 1, "unit_misses": 0, "unit_errors": 0,
        }
        assert _counters(near.stats()) == {
            "entries": 1, "artifacts": 0, "units": 1, "hits": 1,
            "misses": 1, "disk_hits": 1, "unit_hits": 1,
            "unit_misses": 0, "evictions": 0,
        }


class TestAddresses:
    def test_v2_relative_paths(self, tmp_path):
        result = pipeline_compile(FIG2_SOURCE, store=fresh_store(tmp_path))
        v2 = tmp_path / "v2"
        source, options = result.source_hash, result.options.options_hash()
        paths = sorted(
            path.relative_to(v2).as_posix()
            for path in v2.rglob("*")
            if path.is_file()
        )
        # one result file, and one pack per persisting pass, named by
        # the SHA-256 of its pass and the sorted unit keys it holds
        held = stored(tmp_path)
        assert held.pop("result") == {ResultKey(source, options)}
        assert sorted(held) == ["dependence", "emit", "fusion"]
        packs = [
            f"units/{name}/"
            + hashlib.sha256(
                "\x00".join((name, *sorted(keys))).encode()
            ).hexdigest()
            + ".pack"
            for name, keys in held.items()
        ]
        assert paths == sorted(
            [f"{source[:2]}/{source}-{options}.pkl", *packs]
        )

    def test_http_peer_request_paths(self):
        requested = []

        class Recorder(BaseHTTPRequestHandler):
            def do_GET(self):
                requested.append(self.path)
                # results: an ordinary miss; units: peer damage
                self.send_response(
                    404 if self.path.startswith("/artifact/result/")
                    else 500
                )
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Recorder)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            peer = PeerTier(f"http://127.0.0.1:{server.server_address[1]}/")
            store = TieredStore([peer])
            key = ResultKey("ab" * 32, "ef" * 32)
            assert store.get_result(key) is None
            assert store.get_unit("fusion", "12" * 32) is None
            # keys that could escape a path or URL are never sent
            assert store.get_unit("../fusion", "12" * 32) is None
            assert store.get_unit("fusion", "../" + "1" * 61) is None
            assert store.get_result(ResultKey("x", "ef" * 32)) is None
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert requested == [
            f"/artifact/result/{'ab' * 32}/{'ef' * 32}",
            f"/artifact/unit/fusion/{'12' * 32}",
        ]
        # a 404 is a miss; any other failure is a transport error,
        # counted under the requested kind's errors counter
        assert _counters(peer.stats()) == {
            "transport": "http", "hits": 0, "misses": 2, "errors": 0,
            "unit_hits": 0, "unit_misses": 3, "unit_errors": 1,
        }

