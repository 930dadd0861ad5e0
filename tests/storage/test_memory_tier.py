"""MemoryTier: byte-budgeted global LRU and pass-scoped GC."""

import time

from repro.storage import MemoryTier


def _key(i: int) -> str:
    return f"{i:064x}"[:64].rjust(64, "0")


class TestByteBudget:
    def test_eviction_is_lru_ordered_under_the_byte_budget(self):
        tier = MemoryTier(max_bytes=3500)
        for i in range(4):
            tier.store("unit", ("fusion", _key(i)), b"x" * 1000)
        # 4000 bytes against a 3500 budget: exactly the least recently
        # used entry (unit 0) must have gone, in insertion order
        assert tier.fetch("unit", ("fusion", _key(0))) is None
        for i in (1, 2, 3):
            assert tier.fetch("unit", ("fusion", _key(i))) is not None

    def test_touch_refreshes_recency(self):
        tier = MemoryTier(max_bytes=3500)
        for i in range(3):
            tier.store("unit", ("fusion", _key(i)), b"x" * 1000)
        # touching unit 0 makes unit 1 the eviction victim
        assert tier.fetch("unit", ("fusion", _key(0))) is not None
        tier.store("unit", ("fusion", _key(3)), b"x" * 1000)
        assert tier.fetch("unit", ("fusion", _key(1))) is None
        assert tier.fetch("unit", ("fusion", _key(0))) is not None

    def test_budget_is_global_across_sections(self):
        # the oldest entry goes first even when it lives in a different
        # section than the insert that tipped the budget
        tier = MemoryTier(max_bytes=2500)
        tier.store("module", "old-module", b"x" * 1000)
        tier.store("unit", ("emit", _key(0)), b"x" * 1000)
        tier.store("unit", ("emit", _key(1)), b"x" * 1000)
        assert tier.fetch("module", "old-module") is None
        assert tier.fetch("unit", ("emit", _key(0))) is not None
        assert tier.fetch("unit", ("emit", _key(1))) is not None

    def test_entry_count_caps_still_apply(self):
        tier = MemoryTier(max_units=2)
        for i in range(3):
            tier.store("unit", ("fusion", _key(i)), b"tiny")
        assert tier.stats()["units"] == 2
        assert tier.fetch("unit", ("fusion", _key(0))) is None

    def test_total_bytes_tracks_inserts_and_evictions(self):
        tier = MemoryTier(max_bytes=10_000)
        tier.store("unit", ("emit", _key(0)), b"x" * 1000)
        assert tier.total_bytes() == 1000
        # a replace, not a leak
        tier.store("unit", ("emit", _key(0)), b"x" * 500)
        assert tier.total_bytes() == 500


class TestGC:
    def test_pass_scoped_gc_leaves_other_passes_intact(self):
        tier = MemoryTier()
        tier.store("unit", ("fusion", _key(0)), b"plan")
        tier.store("unit", ("fusion", _key(1)), b"plan")
        tier.store("unit", ("emit", _key(2)), b"text")
        summary = tier.gc(pass_name="fusion")
        assert summary["removed"] == 2
        assert tier.fetch("unit", ("fusion", _key(0))) is None
        assert tier.fetch("unit", ("emit", _key(2))) is not None

    def test_gc_max_age_drops_only_old_entries(self):
        tier = MemoryTier()
        tier.store("unit", ("fusion", _key(0)), b"old")
        # age the first entry artificially (the tier stamps wall time
        # at insert)
        tier._sections["unit"][("fusion", _key(0))].wall = time.time() - 100
        tier.store("unit", ("fusion", _key(1)), b"new")
        summary = tier.gc(pass_name="fusion", max_age_seconds=50)
        assert summary["removed"] == 1
        assert tier.fetch("unit", ("fusion", _key(0))) is None
        assert tier.fetch("unit", ("fusion", _key(1))) is not None

    def test_gc_max_bytes_trims_a_pass_lru_first(self):
        tier = MemoryTier()
        for i in range(4):
            tier.store("unit", ("fusion", _key(i)), b"x" * 1000)
        tier.store("unit", ("emit", _key(9)), b"x" * 1000)
        summary = tier.gc(pass_name="fusion", max_bytes=2000)
        assert summary["removed"] == 2
        assert tier.fetch("unit", ("fusion", _key(0))) is None
        assert tier.fetch("unit", ("fusion", _key(1))) is None
        assert tier.fetch("unit", ("fusion", _key(3))) is not None
        assert tier.fetch("unit", ("emit", _key(9))) is not None
