"""Persistent artifact store: layout, round trips, eviction, damage."""

import os
import pickle

from repro.pipeline import compile as pipeline_compile
from repro.storage import (
    FORMAT_VERSION,
    DiskTier,
    ResultKey,
    artifact_path,
    disk_tier_for,
)

from tests.fixtures import (
    FIG1_SOURCE,
    FIG2_SOURCE,
    fresh_store,
    source_workload,
)


def _compile_into(tmp_path, source=FIG2_SOURCE, persist=True):
    """*source* through a fresh memory tier over the store at
    *tmp_path* (a new process, as far as that store can tell)."""
    return pipeline_compile(
        source, store=fresh_store(tmp_path, persist=persist)
    )


def _key(result) -> ResultKey:
    return ResultKey.of(result.source_hash, result.options)


def _path(store, result):
    return store.dir / artifact_path("result", _key(result))


class TestRoundTrip:
    def test_cold_compile_spills_and_new_cache_loads(self, tmp_path):
        cold = _compile_into(tmp_path)
        assert not cold.cache_hit
        store = disk_tier_for(str(tmp_path))
        assert len(store) == 1
        # a brand-new memory cache (standing in for a new process)
        # serves the same compile from disk
        warm = _compile_into(tmp_path)
        assert warm.cache_hit
        assert warm.fused is not cold.fused  # deserialized, not shared
        assert warm.source_hash == cold.source_hash

    def test_restored_artifact_executes(self, tmp_path):
        from repro.runtime import Heap, Node
        from repro.runtime.values import ObjectValue

        cold = _compile_into(tmp_path)
        warm = _compile_into(tmp_path)
        assert warm.cache_hit

        # run both the cold and the disk-restored fused modules on the
        # same input and compare final trees (the restored module execs
        # its namespace lazily on this first run)
        def run(result):
            p = result.program
            heap = Heap(p)

            def tb(n, nxt):
                return Node.new(
                    p, heap, "TextBox",
                    Text=ObjectValue("String", {"Length": n}), Next=nxt,
                )

            root = tb(5, tb(7, Node.new(p, heap, "End")))
            result.compiled_fused.run_fused(heap, root, {"CHAR_WIDTH": 2})
            return root.snapshot(p)

        assert run(warm) == run(cold)

    def test_layout_is_versioned_and_hash_sharded(self, tmp_path):
        result = _compile_into(tmp_path)
        store = disk_tier_for(str(tmp_path))
        path = _path(store, result)
        assert path.exists()
        assert path.parent.parent.name == f"v{FORMAT_VERSION}"
        assert path.parent.name == result.source_hash[:2]
        assert path.name.endswith(f"-{result.options.options_hash()}.pkl")

    def test_persist_false_is_read_only(self, tmp_path):
        result = _compile_into(tmp_path, persist=False)
        assert not result.cache_hit
        assert len(disk_tier_for(str(tmp_path))) == 0

    def test_non_portable_impls_never_spill(self, tmp_path):
        source = """
        _pure_ int f(int x);
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void go() { this->v = f(this->v); }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->go(); }
        """
        result = pipeline_compile(
            # id()-keyed impls: not portable
            source_workload(source, {"f": lambda x: x + 1}),
            store=fresh_store(tmp_path),
        )
        assert not result.cache_hit
        store = disk_tier_for(str(tmp_path))
        assert len(store) == 0
        assert store.counts["spill_skips"] >= 1


class TestDamageTolerance:
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        result = _compile_into(tmp_path)
        store = disk_tier_for(str(tmp_path))
        path = _path(store, result)
        path.write_bytes(b"not a pickle")
        assert store.fetch("result", _key(result)) is None
        assert not path.exists()
        assert store.counts["load_errors"] == 1

    def test_foreign_format_is_a_miss_and_removed(self, tmp_path):
        result = _compile_into(tmp_path)
        store = disk_tier_for(str(tmp_path))
        path = _path(store, result)
        path.write_bytes(
            pickle.dumps({"format": FORMAT_VERSION + 1, "result": None})
        )
        assert store.fetch("result", _key(result)) is None
        assert not path.exists()

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = DiskTier(str(tmp_path))
        missing = ResultKey("0" * 64, "1" * 64)
        assert store.fetch("result", missing) is None
        assert store.counts["load_misses"] == 1


class TestEviction:
    def test_lru_eviction_respects_byte_budget(self, tmp_path):
        a = _compile_into(tmp_path, source=FIG2_SOURCE)
        b = _compile_into(tmp_path, source=FIG1_SOURCE)
        store = disk_tier_for(str(tmp_path))
        path_a = _path(store, a)
        path_b = _path(store, b)
        assert path_a.exists() and path_b.exists()
        # make recency unambiguous (fs mtime granularity): a is older
        os.utime(path_a, (1, 1))
        os.utime(path_b, (2, 2))
        store.max_bytes = store.total_bytes() - 1
        removed = store.evict()
        assert removed == 1
        assert not path_a.exists()  # least recently used went first
        assert path_b.exists()

    def test_load_refreshes_recency(self, tmp_path):
        a = _compile_into(tmp_path, source=FIG2_SOURCE)
        b = _compile_into(tmp_path, source=FIG1_SOURCE)
        store = disk_tier_for(str(tmp_path))
        path_a = _path(store, a)
        path_b = _path(store, b)
        os.utime(path_a, (1, 1))
        os.utime(path_b, (2, 2))
        # serving a bumps it to most recent, so b becomes the victim
        assert store.fetch("result", _key(a)) is not None
        os.utime(path_a, None)  # belt and braces on coarse clocks
        store.max_bytes = store.total_bytes() - 1
        store.evict()
        assert path_a.exists()
        assert not path_b.exists()


class TestRegistry:
    def test_store_for_dedupes_by_resolved_path(self, tmp_path):
        direct = disk_tier_for(str(tmp_path))
        dotted = disk_tier_for(str(tmp_path / "." ))
        assert direct is dotted

    def test_stats_shape(self, tmp_path):
        _compile_into(tmp_path)
        stats = disk_tier_for(str(tmp_path)).stats()
        for key in ("entries", "bytes", "spills", "loads", "evictions"):
            assert key in stats
        assert stats["entries"] == 1
        assert stats["bytes"] > 0


class TestKeySpace:
    """A result's disk key is its source and output options alone: no
    storage setting (persist, the store's own directory) enters it."""

    def test_persist_false_reader_hits_persist_true_writers_entry(
        self, tmp_path
    ):
        writer = _compile_into(tmp_path, persist=True)
        assert not writer.cache_hit
        reader = _compile_into(tmp_path, persist=False)
        assert reader.cache_hit, (
            "read-only mode must share the writer's key space"
        )

    def test_store_survives_being_moved(self, tmp_path):
        import shutil

        original = tmp_path / "original"
        moved = tmp_path / "moved"
        cold = _compile_into(original)
        assert not cold.cache_hit
        shutil.move(str(original), str(moved))
        warm = _compile_into(moved)
        assert warm.cache_hit, "a relocated store must keep its entries"

    def test_foreign_repro_version_is_a_clean_miss(self, tmp_path):
        result = _compile_into(tmp_path)
        store = disk_tier_for(str(tmp_path))
        path = _path(store, result)
        payload = pickle.loads(path.read_bytes())
        payload["repro"] = "0.0.0-someone-else"
        path.write_bytes(pickle.dumps(payload))
        # a version-mismatched entry misses cleanly and is dropped —
        # never deserialized into a possibly stale class layout
        assert (
            store.fetch("result", _key(result))
            is None
        )
        assert not path.exists()


class TestReopenedStore:
    def test_first_spill_enforces_budget_against_preexisting_bytes(
        self, tmp_path
    ):
        # a previous process left two entries behind
        a = _compile_into(tmp_path, source=FIG2_SOURCE)
        b = _compile_into(tmp_path, source=FIG1_SOURCE)
        store = disk_tier_for(str(tmp_path))
        path_a = _path(store, a)
        path_b = _path(store, b)
        os.utime(path_a, (1, 1))
        os.utime(path_b, (2, 2))
        # a fresh store instance (new process) with a budget smaller
        # than the leftovers must trim them on its first spill, even
        # though it spilled almost nothing itself
        reopened = DiskTier(
            str(tmp_path), max_bytes=path_b.stat().st_size + 1
        )
        result = _compile_into(tmp_path / "elsewhere")  # any result
        assert reopened.store("result", _key(result), result)
        assert not path_a.exists(), "pre-existing LRU entry must go"

    def test_an_older_release_entry_is_recompiled_and_replaced(
        self, tmp_path
    ):
        # what a store written by an earlier release looks like to this
        # one: the same path, another version in the payload
        result = _compile_into(tmp_path)
        store = disk_tier_for(str(tmp_path))
        path = _path(store, result)
        payload = pickle.loads(path.read_bytes())
        payload["repro"] = "0.8.0"
        path.write_bytes(pickle.dumps(payload))
        again = _compile_into(tmp_path)
        assert not again.cache_hit
        assert pickle.loads(path.read_bytes())["repro"] != "0.8.0"
        assert _compile_into(tmp_path).cache_hit
