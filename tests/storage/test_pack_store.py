"""Unit packs on disk: one file per pass publication, read through an index.

A disk tier writes the units one pass computed in one compile as one
pack file, and finds a unit through a :class:`PackIndex` built from pack
headers. These cases pin what that index must survive: another instance
over the same directory publishing or evicting packs, damaged packs,
and a pack rewritten under its name, plus the shape of what it writes.
"""

import errno
import os
import pickle
import sys
import threading
import time

import pytest

from repro.pipeline import compile as pipeline_compile
from repro.storage import DiskTier, MemoryTier, PeerTier, TieredStore, disk
from repro.storage.base import encode, pack_path
from repro.storage.disk import PackIndex

from tests.fixtures import FIG2_SOURCE, fresh_store, stored

KEYS = [f"{index:02x}" * 32 for index in range(1, 6)]


def _units(pass_name="fusion", keys=KEYS):
    return [(key, {"pass": pass_name, "key": key}, None) for key in keys]


def _pack_of(tier, pass_name, key):
    return tier.packs.locate(pass_name, key)[0]


def _settle(directory):
    """Date a directory's mtime back, as if its last change were long
    past (so a listing of it may be trusted)."""
    past = time.time_ns() - 60 * 10**9
    os.utime(directory, ns=(past, past))


def _failing_open(patch, code):
    """Make every open of a pack file fail with *code*."""
    real = open

    def fake(path, *args, **kwargs):
        if str(path).endswith(".pack"):
            raise OSError(code, os.strerror(code), str(path))
        return real(path, *args, **kwargs)

    patch.setattr(disk, "open", fake, raising=False)


def _count_listings(patch):
    """The directories listed from now on."""
    listed = []
    real = os.scandir

    def scandir(path):
        listed.append(path)
        return real(path)

    patch.setattr(disk.os, "scandir", scandir)
    return listed


class TestTwoInstances:
    def test_a_pack_another_instance_publishes_is_found(self, tmp_path):
        reader = DiskTier(str(tmp_path))
        writer = DiskTier(str(tmp_path))
        assert reader.fetch("unit", ("fusion", KEYS[0])) is None
        assert writer.store_pack("fusion", _units()) == len(KEYS)
        artifact, blob = reader.fetch("unit", ("fusion", KEYS[0]))
        assert artifact == {"pass": "fusion", "key": KEYS[0]}
        assert blob == encode("unit", artifact)
        assert reader.counts["unit_load_misses"] == 1
        assert reader.counts["unit_loads"] == 1
        assert reader.counts["unit_load_errors"] == 0

    def test_a_pack_another_instance_evicts_is_a_clean_miss(
        self, tmp_path
    ):
        reader = DiskTier(str(tmp_path))
        owner = DiskTier(str(tmp_path))
        owner.store_pack("fusion", _units())
        assert reader.fetch("unit", ("fusion", KEYS[1])) is not None
        owner.max_bytes = 0
        assert owner.evict() == 1
        # the reader indexed the pack before it went
        assert reader.fetch("unit", ("fusion", KEYS[2])) is None
        assert reader.counts["unit_load_misses"] == 1
        assert reader.counts["unit_load_errors"] == 0
        assert reader.stats()["unit_entries"] == 0

    def test_a_pack_rewritten_under_its_name_is_read_again(
        self, tmp_path
    ):
        reader = DiskTier(str(tmp_path))
        first = DiskTier(str(tmp_path))
        first.store_pack("fusion", _units())
        assert reader.fetch("unit", ("fusion", KEYS[0])) is not None
        # the same units with payloads of other lengths: the same pack
        # name, other offsets
        DiskTier(str(tmp_path)).store_pack(
            "fusion",
            [(key, {"longer": key * 3}, None) for key in KEYS],
        )
        artifact, _ = reader.fetch("unit", ("fusion", KEYS[4]))
        assert artifact == {"longer": KEYS[4] * 3}
        assert reader.counts["unit_load_errors"] == 0


class TestDamage:
    def _two_packs(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        tier.store_pack("fusion", _units(keys=KEYS[:2]))
        tier.store_pack("fusion", _units(keys=KEYS[2:]))
        return _pack_of(tier, "fusion", KEYS[0]), _pack_of(
            tier, "fusion", KEYS[2]
        )

    def test_truncated_and_corrupt_header_packs_are_errors(self, tmp_path):
        truncated, corrupt = self._two_packs(tmp_path)
        good = DiskTier(str(tmp_path))
        good.store_pack("emit", _units("emit"))
        truncated.write_bytes(truncated.read_bytes()[:-10])
        data = bytearray(corrupt.read_bytes())
        data[:4] = b"XXXX"
        corrupt.write_bytes(bytes(data))

        tier = DiskTier(str(tmp_path))
        for key in KEYS:
            assert tier.fetch("unit", ("fusion", key)) is None
        assert tier.counts["unit_load_errors"] == 2
        assert not truncated.exists() and not corrupt.exists()
        # other packs still serve
        assert tier.fetch("unit", ("emit", KEYS[0])) is not None
        assert tier.stats()["unit_entries"] == len(KEYS)

    def test_a_pack_damaged_after_it_was_indexed_is_an_error(
        self, tmp_path
    ):
        truncated, corrupt = self._two_packs(tmp_path)
        tier = DiskTier(str(tmp_path))
        assert tier.stats()["unit_entries"] == len(KEYS)
        truncated.write_bytes(truncated.read_bytes()[:-10])
        data = bytearray(corrupt.read_bytes())
        data[-20:] = b"\x00" * 20
        corrupt.write_bytes(bytes(data))
        assert tier.fetch("unit", ("fusion", KEYS[0])) is None
        assert tier.fetch("unit", ("fusion", KEYS[4])) is None
        assert tier.counts["unit_load_errors"] == 2
        assert tier.counts["unit_load_misses"] == 0
        assert not truncated.exists() and not corrupt.exists()

    def test_compact_removes_exactly_a_pack_that_fails_to_load(
        self, tmp_path
    ):
        tier = DiskTier(str(tmp_path))
        foreign = pickle.dumps({"format": 1, "repro": "0", "unit": 1})
        tier.store_pack(
            "fusion", [*_units(keys=KEYS[:1]), (KEYS[1], None, foreign)]
        )
        tier.store_pack("fusion", _units(keys=KEYS[2:]))
        bad = _pack_of(tier, "fusion", KEYS[0])
        size = bad.stat().st_size
        assert tier.compact() == {"removed": 1, "reclaimed_bytes": size}
        assert not bad.exists()
        assert tier.counts["compacted_entries"] == 1
        assert tier.fetch("unit", ("fusion", KEYS[0])) is None
        artifact, _ = tier.fetch("unit", ("fusion", KEYS[3]))
        assert artifact == {"pass": "fusion", "key": KEYS[3]}
        assert tier.stats()["unit_entries"] == len(KEYS) - 2

    def test_a_foreign_payload_drops_its_pack(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        foreign = pickle.dumps({"format": 1, "repro": "0", "unit": 1})
        tier.store_pack("fusion", [(KEYS[0], None, foreign)])
        pack = _pack_of(tier, "fusion", KEYS[0])
        assert tier.fetch("unit", ("fusion", KEYS[0])) is None
        assert tier.counts["unit_load_errors"] == 1
        assert not pack.exists()

    def test_a_read_only_index_leaves_bad_packs_in_place(self, tmp_path):
        truncated, corrupt = self._two_packs(tmp_path)
        truncated.write_bytes(truncated.read_bytes()[:-10])
        corrupt.write_bytes(b"XXXX" + corrupt.read_bytes()[4:])
        bad = []
        index = PackIndex(tmp_path / "v2", on_bad=lambda: bad.append(1))
        assert index.units() == {}
        assert index.units() == {}
        assert len(bad) == 2
        assert truncated.exists() and corrupt.exists()


class TestUnreadable:
    """A pack that cannot be read now is a plain miss, and stays."""

    @pytest.mark.parametrize("code", [errno.EMFILE, errno.EACCES, errno.EIO])
    def test_an_indexed_pack_survives(self, tmp_path, code):
        tier = DiskTier(str(tmp_path))
        tier.store_pack("fusion", _units())
        pack = _pack_of(tier, "fusion", KEYS[0])
        with pytest.MonkeyPatch.context() as patch:
            _failing_open(patch, code)
            assert tier.fetch("unit", ("fusion", KEYS[0])) is None
            assert tier.payload("unit", ("fusion", KEYS[1])) is None
        assert pack.exists()
        assert tier.counts["unit_load_misses"] == 1
        assert tier.counts["unit_load_errors"] == 0
        assert tier.fetch("unit", ("fusion", KEYS[0])) is not None

    def test_an_unread_pack_survives_and_is_read_later(self, tmp_path):
        DiskTier(str(tmp_path)).store_pack("fusion", _units())
        _settle(tmp_path / "v2" / "units" / "fusion")
        tier = DiskTier(str(tmp_path))
        bad = []
        peer = PackIndex(tmp_path / "v2", on_bad=lambda: bad.append(1))
        with pytest.MonkeyPatch.context() as patch:
            _failing_open(patch, errno.EMFILE)
            assert tier.fetch("unit", ("fusion", KEYS[0])) is None
            assert peer.read("fusion", KEYS[0]) is None
        # the directory did not change, but the listing that could not
        # read a header is not trusted
        assert tier.fetch("unit", ("fusion", KEYS[0])) is not None
        assert peer.read("fusion", KEYS[0]) is not None
        assert tier.counts["unit_load_errors"] == 0
        assert bad == []

    def test_compact_keeps_a_pack_it_cannot_read(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        tier.store_pack("fusion", _units())
        with pytest.MonkeyPatch.context() as patch:
            _failing_open(patch, errno.EMFILE)
            assert tier.compact()["removed"] == 0
        assert tier.fetch("unit", ("fusion", KEYS[0])) is not None


class TestOverlap:
    """Two packs that hold one unit: either one serves it."""

    def _overlapping(self, tmp_path):
        owner = DiskTier(str(tmp_path))
        owner.store_pack("fusion", _units(keys=KEYS[:3]))
        owner.store_pack("fusion", _units(keys=KEYS[2:]))
        return owner

    def _evict(self, owner, pack):
        """Evict exactly *pack*, the least recently used one."""
        past = time.time() - 60
        os.utime(pack, (past, past))
        owner.max_bytes = owner.total_bytes() - pack.stat().st_size
        assert owner.evict() == 1
        assert not pack.exists()

    def test_the_other_pack_serves_after_an_eviction(self, tmp_path):
        owner = self._overlapping(tmp_path)
        self._evict(owner, _pack_of(owner, "fusion", KEYS[2]))
        artifact, _ = owner.fetch("unit", ("fusion", KEYS[2]))
        assert artifact == {"pass": "fusion", "key": KEYS[2]}
        assert owner.counts["unit_load_misses"] == 0

    def test_the_other_pack_serves_after_another_instance_evicts(
        self, tmp_path
    ):
        owner = self._overlapping(tmp_path)
        reader = DiskTier(str(tmp_path))
        assert reader.stats()["unit_entries"] == len(KEYS)
        self._evict(owner, _pack_of(reader, "fusion", KEYS[2]))
        artifact, _ = reader.fetch("unit", ("fusion", KEYS[2]))
        assert artifact == {"pass": "fusion", "key": KEYS[2]}
        assert reader.stats()["unit_entries"] == 3
        assert reader.counts["unit_load_misses"] == 0
        assert reader.counts["unit_load_errors"] == 0


class TestListing:
    """A miss reads the pass directory only when it changed."""

    def test_a_miss_in_an_unchanged_directory_lists_nothing(
        self, tmp_path, monkeypatch
    ):
        writer = DiskTier(str(tmp_path))
        for start in range(0, len(KEYS), 2):
            writer.store_pack("emit", _units("emit", KEYS[start:start + 2]))
        _settle(tmp_path / "v2" / "units" / "emit")
        tier = DiskTier(str(tmp_path))
        listed = _count_listings(monkeypatch)
        missing = "ab" * 32
        for _ in range(5):
            assert tier.fetch("unit", ("emit", missing)) is None
        assert len(listed) == 1
        assert tier.fetch("unit", ("emit", KEYS[3])) is not None
        assert len(listed) == 1
        # another instance publishes: the directory changed
        writer.store_pack("emit", _units("emit", [missing, "cd" * 32]))
        assert tier.fetch("unit", ("emit", missing)) is not None
        assert len(listed) == 2

    def test_a_listing_forgets_the_packs_another_instance_deleted(
        self, tmp_path
    ):
        owner = DiskTier(str(tmp_path))
        owner.store_pack("fusion", _units())
        reader = DiskTier(str(tmp_path))
        assert reader.stats()["unit_entries"] == len(KEYS)
        assert owner.gc("fusion")["removed"] == 1
        assert reader.stats()["unit_entries"] == 0

    def test_a_listing_of_a_fresh_directory_is_not_trusted(self, tmp_path):
        # a file system whose clock ticks coarsely can stamp a change
        # right after a listing with the mtime that listing saw
        writer = DiskTier(str(tmp_path))
        writer.store_pack("emit", _units("emit", KEYS[:2]))
        directory = tmp_path / "v2" / "units" / "emit"
        seen = directory.stat().st_mtime_ns
        tier = DiskTier(str(tmp_path))
        assert tier.fetch("unit", ("emit", KEYS[3])) is None
        writer.store_pack("emit", _units("emit", KEYS[2:]))
        os.utime(directory, ns=(seen, seen))
        assert tier.fetch("unit", ("emit", KEYS[3])) is not None

    def test_a_one_unit_pack_is_opened_without_a_listing(
        self, tmp_path, monkeypatch
    ):
        writer = DiskTier(str(tmp_path))
        writer.store_pack("bytecode", _units("bytecode", KEYS[1:3]))
        assert writer.store("unit", ("bytecode", KEYS[0]), b"code")
        tier = DiskTier(str(tmp_path))
        listed = _count_listings(monkeypatch)
        assert tier.fetch("unit", ("bytecode", KEYS[0]))[0] == b"code"
        assert listed == []


class TestShape:
    def test_a_pack_holds_the_payloads_verbatim(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        tier.store_pack("emit", _units("emit"))
        (pack,) = (tmp_path / "v2" / "units" / "emit").iterdir()
        assert pack.relative_to(tmp_path / "v2").as_posix() == pack_path(
            "emit", KEYS
        )
        data = pack.read_bytes()
        for key, artifact, _ in _units("emit"):
            _, offset, length = tier.packs.locate("emit", key)
            assert data[offset:offset + length] == encode("unit", artifact)

    def test_the_same_units_publish_the_same_name(self, tmp_path):
        DiskTier(str(tmp_path / "a")).store_pack("emit", _units("emit"))
        DiskTier(str(tmp_path / "b")).store_pack(
            "emit", list(reversed(_units("emit")))
        )
        assert {
            path.name for path in (tmp_path / "a").rglob("*.pack")
        } == {path.name for path in (tmp_path / "b").rglob("*.pack")}

    def test_a_peer_promoted_unit_is_a_one_unit_pack_of_its_blob(
        self, tmp_path
    ):
        DiskTier(str(tmp_path / "peer")).store_pack("fusion", _units())
        local = DiskTier(str(tmp_path / "local"))
        peer = PeerTier(str(tmp_path / "peer"))
        store = TieredStore([MemoryTier(), local, peer])
        artifact, served_by = store.get_unit("fusion", KEYS[3])
        assert served_by is peer
        assert stored(tmp_path / "local") == {
            "fusion": {KEYS[3]}, "result": set(),
        }
        pack = _pack_of(local, "fusion", KEYS[3])
        assert pack.relative_to(local.dir).as_posix() == pack_path(
            "fusion", [KEYS[3]]
        )
        assert local.payload("unit", ("fusion", KEYS[3])) == (
            DiskTier(str(tmp_path / "peer")).payload(
                "unit", ("fusion", KEYS[3])
            )
        )

    def test_a_compile_writes_one_pack_per_pass(self, tmp_path):
        pipeline_compile(FIG2_SOURCE, store=fresh_store(tmp_path))
        packs = sorted(
            path.parent.name for path in tmp_path.rglob("*.pack")
        )
        assert packs == ["dependence", "emit", "fusion"]


class TestThreads:
    def test_no_file_is_read_under_the_index_lock(self, tmp_path, monkeypatch):
        # readers through one shared tier (the service's /artifact
        # handler) must not wait on each other's file I/O
        DiskTier(str(tmp_path)).store_pack("fusion", _units())
        tier = DiskTier(str(tmp_path))
        locked = []
        real_open, real_scandir = open, os.scandir

        def fake_open(path, *args, **kwargs):
            locked.append(tier.packs._lock.locked())
            return real_open(path, *args, **kwargs)

        def fake_scandir(path):
            locked.append(tier.packs._lock.locked())
            return real_scandir(path)

        monkeypatch.setattr(disk, "open", fake_open, raising=False)
        monkeypatch.setattr(disk.os, "scandir", fake_scandir)
        assert tier.fetch("unit", ("fusion", KEYS[0])) is not None
        assert tier.fetch("unit", ("fusion", "ab" * 32)) is None
        assert tier.payload("unit", ("fusion", KEYS[1])) is not None
        assert len(locked) >= 3 and not any(locked)

    def test_threads_publishing_and_reading_lose_no_unit(self, tmp_path):
        # more threads than cores, each publishing its own packs through
        # one tier and reading every unit back through that tier and a
        # second instance over the same directory; a lost index update
        # shows as a miss or an error
        shared = DiskTier(str(tmp_path))
        other = DiskTier(str(tmp_path))
        failures = []

        def work(thread):
            try:
                for batch in range(8):
                    keys = [
                        f"{thread:02x}{batch:02x}{unit:02x}" + "0" * 58
                        for unit in range(4)
                    ]
                    units = [(key, {"key": key}, None) for key in keys]
                    assert shared.store_pack("emit", units) == len(keys)
                    for tier in (shared, other):
                        for key in keys:
                            got = tier.fetch("unit", ("emit", key))
                            assert got is not None and got[0] == {"key": key}
            except BaseException as error:  # reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(index,))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert shared.counts["unit_load_errors"] == 0
        assert other.counts["unit_load_errors"] == 0
        assert shared.stats()["unit_entries"] == 6 * 8 * 4
