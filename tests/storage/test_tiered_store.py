"""Tier composition: promotion, persist gating, per-pass disk GC, and
pickling a store to another process."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import GLOBAL_CACHE
from repro.pipeline import compile as pipeline_compile
from repro.storage import (
    DiskTier,
    MemoryTier,
    PeerTier,
    ResultKey,
    TieredStore,
    disk_tier_for,
    peer_tier_for,
)

from tests.fixtures import FIG2_SOURCE, fresh_store, stored

SRC = Path(__file__).resolve().parents[2] / "src"


def _compile(cache_dir=None, peers=(), **kwargs):
    """Fig. 2 through a fresh memory tier, the disk store at
    *cache_dir*, then *peers*."""
    return pipeline_compile(
        FIG2_SOURCE, store=fresh_store(cache_dir, peers), **kwargs
    )


class TestPromotion:
    def test_peer_hit_promotes_into_disk_and_memory(self, tmp_path):
        peer_root = tmp_path / "peer"
        local_root = tmp_path / "local"
        seeded = _compile(cache_dir=str(peer_root))
        assert not seeded.cache_hit

        memory = MemoryTier()
        warm = pipeline_compile(
            FIG2_SOURCE,
            store=TieredStore(
                [
                    memory,
                    disk_tier_for(str(local_root)),
                    peer_tier_for(str(peer_root)),
                ]
            ),
        )
        assert warm.cache_hit
        # the peer's artifact now lives in the local store...
        local = DiskTier(str(local_root))
        assert local.fetch(
            "result", ResultKey.of(warm.source_hash, warm.options)
        ) is not None
        # ...and in the memory tier (adopted as a served-from-below hit)
        assert memory.counts["disk_hits"] == 1

    @pytest.mark.parametrize("kind", ["result", "unit"])
    def test_peer_promotion_republishes_the_exact_bytes(
        self, tmp_path, kind
    ):
        # the local store's copy is the peer's payload verbatim, not a
        # re-pickle (which also keeps the peer-warm path within sight
        # of a local-warm one). A unit-by-unit rebuild (no whole-result
        # lookup) promotes units; a plain warm compile promotes the
        # result.
        peer_root = tmp_path / "peer"
        local_root = tmp_path / "local"
        _compile(cache_dir=str(peer_root))
        _compile(
            cache_dir=str(local_root),
            peers=(str(peer_root),),
            reuse_result=kind == "result",
        )
        held = stored(local_root)
        if kind == "result":
            promoted = [("result", key) for key in held["result"]]
        else:
            promoted = [
                ("unit", (name, key))
                for name, keys in held.items()
                if name != "result"
                for key in keys
            ]
        assert promoted
        local, peer = DiskTier(str(local_root)), DiskTier(str(peer_root))
        for address in promoted:
            assert local.payload(*address) == peer.payload(*address)

    def test_repeat_access_no_longer_needs_the_peer(self, tmp_path):
        peer_root = tmp_path / "peer"
        local_root = tmp_path / "local"
        _compile(cache_dir=str(peer_root))
        _compile(
            cache_dir=str(local_root), peers=(str(peer_root),)
        )
        # a later process (fresh memory tier) with the peer *gone* is
        # still warm: promotion persisted the artifact locally
        import shutil

        shutil.rmtree(peer_root)
        again = _compile(cache_dir=str(local_root))
        assert again.cache_hit

    def test_unit_promotion_disk_to_memory(self, tmp_path):
        store = DiskTier(str(tmp_path))
        store.store("unit", ("fusion", "ab" * 32), {"plan": 1})
        memory = MemoryTier()
        tiers = TieredStore([memory, store])
        artifact, served_by = tiers.get_unit("fusion", "ab" * 32)
        assert artifact == {"plan": 1}
        assert served_by is store
        # second lookup is served by memory
        artifact, served_by = tiers.get_unit("fusion", "ab" * 32)
        assert served_by is memory


class TestPersistGating:
    def test_persist_false_never_writes_the_disk_tier(self, tmp_path):
        memory = MemoryTier()
        disk = DiskTier(str(tmp_path))
        tiers = TieredStore([memory, disk], persist=False)
        tiers.put_unit("emit", "cd" * 32, "text", spill=True)
        assert disk.stats()["unit_entries"] == 0
        assert memory.fetch("unit", ("emit", "cd" * 32))[0] == "text"

    def test_persist_false_promotion_skips_disk(self, tmp_path):
        peer_root = tmp_path / "peer"
        seeded = _compile(cache_dir=str(peer_root))
        memory = MemoryTier()
        local = DiskTier(str(tmp_path / "local"))
        tiers = TieredStore(
            [memory, local, PeerTier(str(peer_root))], persist=False
        )
        key = ResultKey.of(seeded.source_hash, seeded.options)
        assert tiers.get_result(key) is not None
        assert len(local) == 0  # read-only local store stayed clean
        assert memory.fetch("result", key) is not None


class TestDiskGC:
    def test_per_pass_gc_leaves_other_passes_and_results(self, tmp_path):
        result = _compile(cache_dir=str(tmp_path))
        store = DiskTier(str(tmp_path))
        before = store.stats()
        assert before["unit_entries"] > 0
        held = stored(tmp_path)
        assert held["fusion"] and held["emit"]
        fusion_packs = {
            store.packs.locate("fusion", key)[0] for key in held["fusion"]
        }

        summary = store.gc(pass_name="fusion")
        assert summary["removed"] == len(fusion_packs)
        after = stored(tmp_path)
        assert "fusion" not in after
        assert after["emit"] == held["emit"]
        # the full result is untouched
        assert store.fetch(
            "result", ResultKey.of(result.source_hash, result.options)
        ) is not None

    def test_post_gc_recompile_is_byte_identical(self, tmp_path):
        first = _compile(cache_dir=str(tmp_path))
        DiskTier(str(tmp_path)).gc(pass_name="fusion")
        # fresh memory tier + result lookup bypassed: fusion recomputes
        # (its disk units are gone) but the output must not change
        again = _compile(cache_dir=str(tmp_path), reuse_result=False)
        assert again.fused_source == first.fused_source
        assert again.unfused_source == first.unfused_source

    def test_gc_without_policy_is_refused(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="gc needs"):
            DiskTier(str(tmp_path)).gc()

    def test_gc_refuses_traversal_shaped_pass_names(self, tmp_path):
        import pytest

        # the scope becomes a glob under the store root; names with
        # path separators (e.g. from POST /gc) must never reach it
        victim = tmp_path / "victim" / "ab"
        victim.mkdir(parents=True)
        (victim / "data.pkl").write_bytes(b"precious")
        store = DiskTier(str(tmp_path / "store"))
        for evil in ("../../victim", "units/..", "a/b", "..", ""):
            with pytest.raises(ValueError, match="invalid pass name"):
                store.gc(pass_name=evil)
        assert (victim / "data.pkl").read_bytes() == b"precious"

    def test_tiered_gc_respects_the_persist_gate(self, tmp_path):
        # persist=False means "never dirty this store" — gc included
        _compile(cache_dir=str(tmp_path))
        disk = DiskTier(str(tmp_path))
        before = disk.stats()["unit_entries"]
        assert before > 0
        memory = MemoryTier()
        read_only = TieredStore([memory, disk], persist=False)
        summary = read_only.gc(pass_name="fusion")
        assert disk.stats()["unit_entries"] == before
        assert disk.label not in summary

    def test_gc_max_bytes_trims_lru(self, tmp_path):
        _compile(cache_dir=str(tmp_path))
        store = DiskTier(str(tmp_path))
        total = store.total_bytes()
        summary = store.gc(max_bytes=total // 2)
        assert summary["removed"] > 0
        assert store.total_bytes() <= total // 2


class TestMemoryKeys:
    def test_a_memory_hit_serves_any_disk_store(self, tmp_path):
        # the memory tier keys a result on content and options alone,
        # not on the tiers below it: a second store over the same memory
        # tier is served from memory and its disk tier sees nothing
        memory = MemoryTier()
        first = TieredStore([memory, disk_tier_for(str(tmp_path / "a"))])
        second = TieredStore([memory, disk_tier_for(str(tmp_path / "b"))])
        assert not pipeline_compile(FIG2_SOURCE, store=first).cache_hit
        assert pipeline_compile(FIG2_SOURCE, store=second).cache_hit
        assert len(disk_tier_for(str(tmp_path / "a"))) == 1
        assert len(disk_tier_for(str(tmp_path / "b"))) == 0


def _places(store) -> list:
    return [(tier.kind, tier.label) for tier in store.tiers]


class TestPickling:
    """A store pickles as where its tiers live, and loads over the
    loading process's own tiers: what a process-pool worker gets."""

    def _store(self, tmp_path):
        return TieredStore(
            [
                MemoryTier(),
                disk_tier_for(str(tmp_path / "local")),
                peer_tier_for(str(tmp_path / "peer")),
                peer_tier_for("http://127.0.0.1:1"),
            ],
            persist=False,
        )

    def test_loads_over_this_process_tiers(self, tmp_path):
        store = self._store(tmp_path)
        loaded = pickle.loads(pickle.dumps(store))
        assert loaded.memory is GLOBAL_CACHE
        assert loaded.tiers[1:] == store.tiers[1:]  # registry instances
        assert loaded.persist is False

    def test_loads_in_another_process(self, tmp_path):
        store = self._store(tmp_path)
        child = (
            "import pickle, sys\n"
            "from repro.pipeline import GLOBAL_CACHE\n"
            "store = pickle.loads(sys.stdin.buffer.read())\n"
            "print(store.memory is GLOBAL_CACHE, store.persist)\n"
            "for tier in store.tiers:\n"
            "    print(tier.kind, tier.label)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        out = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps(store),
            capture_output=True,
            env=env,
            check=True,
        ).stdout.decode()
        lines = out.splitlines()
        assert lines[0] == "True False"
        assert [tuple(line.split(" ", 1)) for line in lines[1:]] == (
            _places(store)
        )
