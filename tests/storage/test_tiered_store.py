"""Tier composition: promotion, persist gating, and per-pass disk GC."""

import pytest

from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.storage import (
    DiskTier,
    MemoryTier,
    PeerTier,
    ResultKey,
    TieredStore,
)

from tests.fixtures import FIG2_SOURCE


def _compile(source=FIG2_SOURCE, cache=None, **options_kw):
    return pipeline_compile(
        source,
        options=CompileOptions(**options_kw),
        cache=cache if cache is not None else MemoryTier(),
    )


class TestPromotion:
    def test_peer_hit_promotes_into_disk_and_memory(self, tmp_path):
        peer_root = tmp_path / "peer"
        local_root = tmp_path / "local"
        seeded = _compile(cache_dir=str(peer_root))
        assert not seeded.cache_hit

        memory = MemoryTier()
        warm = _compile(
            cache=memory,
            cache_dir=str(local_root),
            peers=(str(peer_root),),
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
        pipeline_compile(
            FIG2_SOURCE,
            options=CompileOptions(
                cache_dir=str(local_root), peers=(str(peer_root),)
            ),
            cache=MemoryTier(),
            reuse_result=kind == "result",
        )
        pattern = (
            "v1/[0-9a-f][0-9a-f]/*.pkl"
            if kind == "result"
            else "v1/units/*/*/*.pkl"
        )
        promoted = sorted(
            path.relative_to(local_root)
            for path in local_root.glob(pattern)
        )
        assert promoted
        for relative in promoted:
            assert (local_root / relative).read_bytes() == (
                peer_root / relative
            ).read_bytes()

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
        fusion_files = list(store.dir.glob("units/fusion/*/*.pkl"))
        emit_files = list(store.dir.glob("units/emit/*/*.pkl"))
        assert fusion_files and emit_files

        summary = store.gc(pass_name="fusion")
        assert summary["removed"] == len(fusion_files)
        assert not list(store.dir.glob("units/fusion/*/*.pkl"))
        assert list(store.dir.glob("units/emit/*/*.pkl")) == emit_files
        # the full result is untouched
        assert store.fetch(
            "result", ResultKey.of(result.source_hash, result.options)
        ) is not None

    def test_post_gc_recompile_is_byte_identical(self, tmp_path):
        first = _compile(cache_dir=str(tmp_path))
        DiskTier(str(tmp_path)).gc(pass_name="fusion")
        # fresh memory tier + result lookup bypassed: fusion recomputes
        # (its disk units are gone) but the output must not change
        again = pipeline_compile(
            FIG2_SOURCE,
            options=CompileOptions(cache_dir=str(tmp_path)),
            cache=MemoryTier(),
            reuse_result=False,
        )
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
