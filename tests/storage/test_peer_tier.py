"""PeerTier: warm hits, damage tolerance, and clean fallback.

A peer can only ever make compiles faster: every failure mode —
missing entry, corrupt or truncated payload, foreign version,
unreachable server — must read as a counted miss that falls through to
a local compile, never as an error.
"""

import pickle

import pytest

from repro.pipeline import compile as pipeline_compile
from repro.storage import (
    FORMAT_VERSION,
    DiskTier,
    PeerTier,
    ResultKey,
    artifact_path,
    peer_tier_for,
)

from tests.fixtures import FIG2_SOURCE, fresh_store, stored


def _seed(tmp_path):
    """Compile FIG2 into a store rooted at *tmp_path*; return the
    result and the store."""
    result = pipeline_compile(FIG2_SOURCE, store=fresh_store(tmp_path))
    return result, DiskTier(str(tmp_path))


class TestDirectoryPeer:
    def test_serves_results_and_units(self, tmp_path):
        result, store = _seed(tmp_path)
        peer = PeerTier(str(tmp_path))
        key = ResultKey.of(result.source_hash, result.options)
        assert peer.fetch("result", key) is not None
        assert peer.counts["hits"] == 1
        unit_key = next(iter(stored(tmp_path)["fusion"]))
        assert peer.fetch("unit", ("fusion", unit_key)) is not None

    def test_is_strictly_read_only(self, tmp_path):
        result, store = _seed(tmp_path)
        peer = PeerTier(str(tmp_path))
        with pytest.raises(TypeError, match="read-only"):
            peer.store(
                "result",
                ResultKey.of(result.source_hash, result.options),
                result,
            )
        with pytest.raises(TypeError, match="read-only"):
            peer.store("unit", ("fusion", "00" * 32), object())

    def test_corrupt_entry_is_a_counted_miss_and_left_in_place(
        self, tmp_path
    ):
        result, store = _seed(tmp_path)
        path = store.dir / artifact_path(
            "result", ResultKey.of(result.source_hash, result.options)
        )
        path.write_bytes(b"not a pickle at all")
        peer = PeerTier(str(tmp_path))
        key = ResultKey.of(result.source_hash, result.options)
        assert peer.fetch("result", key) is None
        assert peer.counts["errors"] == 1 and peer.counts["misses"] == 1
        # unlike the disk tier, a peer never deletes the other store's
        # files — its hygiene is its owner's business
        assert path.exists()

    def test_truncated_entry_is_a_counted_miss(self, tmp_path):
        result, store = _seed(tmp_path)
        path = store.dir / artifact_path(
            "result", ResultKey.of(result.source_hash, result.options)
        )
        path.write_bytes(path.read_bytes()[: 40])
        peer = PeerTier(str(tmp_path))
        assert (
            peer.fetch(
                "result", ResultKey.of(result.source_hash, result.options)
            )
            is None
        )
        assert peer.counts["errors"] == 1

    def test_foreign_format_version_is_a_clean_miss(self, tmp_path):
        result, store = _seed(tmp_path)
        path = store.dir / artifact_path(
            "result", ResultKey.of(result.source_hash, result.options)
        )
        payload = pickle.loads(path.read_bytes())
        payload["format"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        peer = PeerTier(str(tmp_path))
        assert (
            peer.fetch(
                "result", ResultKey.of(result.source_hash, result.options)
            )
            is None
        )

    def test_compile_falls_back_cleanly_past_a_damaged_peer(
        self, tmp_path
    ):
        # the whole point: a peer full of garbage must not break a
        # compile — it just stops helping
        result, store = _seed(tmp_path / "peer")
        for path in store.dir.rglob("*"):
            if path.is_file():
                path.write_bytes(b"garbage")
        compiled = pipeline_compile(
            FIG2_SOURCE, store=fresh_store(peers=(tmp_path / "peer",))
        )
        assert not compiled.cache_hit
        assert compiled.fused_source == result.fused_source


class TestHTTPPeerFailure:
    def test_unreachable_server_is_a_counted_miss(self, tmp_path):
        # a port nothing listens on: connection refused, immediately
        peer = PeerTier("http://127.0.0.1:1", timeout=0.5)
        _, _ = _seed_key(tmp_path)
        assert peer.fetch("result", _seed_key(tmp_path)[0]) is None
        assert peer.counts["errors"] >= 1

    def test_compile_survives_an_unreachable_peer(self):
        compiled = pipeline_compile(
            FIG2_SOURCE, store=fresh_store(peers=("http://127.0.0.1:1",))
        )
        assert not compiled.cache_hit
        assert compiled.fused is not None


class TestRegistry:
    def test_directory_targets_dedupe_by_resolved_path(self, tmp_path):
        direct = peer_tier_for(str(tmp_path))
        dotted = peer_tier_for(str(tmp_path / "."))
        assert direct is dotted

    def test_http_targets_key_verbatim(self):
        assert (
            peer_tier_for("http://127.0.0.1:9")
            is peer_tier_for("http://127.0.0.1:9")
        )

    def test_http_targets_dedupe_trailing_slash(self):
        # PeerTier.__init__ rstrips "/"; the registry must normalize
        # the same way or one peer gets two instances (split counters)
        assert (
            peer_tier_for("http://127.0.0.1:9/")
            is peer_tier_for("http://127.0.0.1:9")
        )


def _seed_key(tmp_path):
    result = pipeline_compile(FIG2_SOURCE, store=fresh_store(tmp_path))
    return ResultKey.of(result.source_hash, result.options), result
