"""Artifact-store compaction and its /stats surfacing."""

import pickle

from repro.storage import DiskTier
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile

SOURCE = """
_tree_ class N {
    _child_ N* kid;
    int x = 0;
    _traversal_ void go() { this->x = 1; this->kid->go(); }
};
int main() { N* root = ...; root->go(); }
"""


def spill_one(store_dir):
    # use_cache must stay on: disabling it bypasses the disk layer too
    return pipeline_compile(
        SOURCE, options=CompileOptions(cache_dir=str(store_dir))
    )


class TestCompact:
    def test_drops_foreign_versions_and_tmp_files(self, tmp_path):
        store = DiskTier(str(tmp_path))
        spill_one(tmp_path)
        assert len(store) == 1
        # a crashed writer's dropping (backdated past the grace window
        # that protects live mid-spill temp files) and an entry from
        # another version
        import os
        import time

        # a *result* bucket (two hex chars), not the units/ subtree
        bucket = next(
            p for p in store.dir.glob("*") if p.name != "units"
        )
        dead = bucket / ".spill-dead.tmp"
        dead.write_bytes(b"half a spill")
        stale = time.time() - 3600
        os.utime(dead, (stale, stale))
        foreign = bucket / ("f" * 64 + "-" + "0" * 8 + ".pkl")
        foreign.write_bytes(
            pickle.dumps(
                {"format": 1, "repro": "0.0.0-other", "result": None}
            )
        )
        corrupt = bucket / ("c" * 64 + "-" + "1" * 8 + ".pkl")
        corrupt.write_bytes(b"not a pickle")

        summary = store.compact()
        assert summary["removed"] == 3
        assert summary["reclaimed_bytes"] > 0
        # the current-version entry survives and still loads
        assert len(store) == 1
        stats = store.stats()
        assert stats["compactions"] == 1
        assert stats["compacted_entries"] == 3

    def test_drops_foreign_format_version_trees(self, tmp_path):
        store = DiskTier(str(tmp_path))
        old_tree = tmp_path / "v0" / "ab"
        old_tree.mkdir(parents=True)
        (old_tree / ("a" * 64 + "-" + "2" * 8 + ".pkl")).write_bytes(
            b"an entry no current load ever reads"
        )
        summary = store.compact()
        assert summary["removed"] == 1
        assert not (tmp_path / "v0").exists()
        assert store.dir.exists()  # the live tree is untouched

    def test_spares_fresh_tmp_files_of_live_writers(self, tmp_path):
        store = DiskTier(str(tmp_path))
        bucket = store.dir / "ab"
        bucket.mkdir()
        fresh = bucket / ".spill-live.tmp"
        fresh.write_bytes(b"a writer between mkstemp and os.replace")
        assert store.compact()["removed"] == 0
        assert fresh.exists()

    def test_compact_on_empty_store_is_a_noop(self, tmp_path):
        store = DiskTier(str(tmp_path))
        assert store.compact() == {"removed": 0, "reclaimed_bytes": 0}

    def test_counters_reach_service_stats(self, tmp_path):
        from repro.service.api import TraversalService

        with TraversalService(
            workers=1, backend="inline", cache_dir=str(tmp_path)
        ) as service:
            request_id = service.submit_workload(
                "render", trees=1, pages=1
            )
            service.result(request_id, timeout=120)
            service.compact_store()
            stats = service.stats()
        store_stats = stats["store"]
        assert store_stats["compactions"] == 1
        assert "evictions" in store_stats
        assert "compacted_bytes" in store_stats

    def test_stats_store_key_present_without_store(self):
        from repro.service.api import TraversalService

        with TraversalService(workers=1, backend="inline") as service:
            stats = service.stats()
        assert stats["store"] is None
        assert service.compact_store() == {
            "removed": 0,
            "reclaimed_bytes": 0,
        }
