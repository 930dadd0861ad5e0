"""The durable tier: a persistent, content-addressed artifact directory.

The v2 layout, atomic temp-file + ``os.replace`` publishes, LRU
byte-budget eviction, and a compaction sweep, behind the
:class:`~repro.storage.base.Tier` face (``fetch``/``store``, plus
``store_pack`` for a pass's units) and per-pass :meth:`gc` — which is
how the :class:`~repro.storage.tiered.TieredStore` composes a disk
directory with the memory LRU above it and read-only peers below.

Layout (versioned so future formats never misread old files; see
:func:`~repro.storage.base.artifact_path` and
:func:`~repro.storage.base.pack_path`)::

    <root>/v2/<source_hash[:2]>/<source_hash>-<options_hash>.pkl
    <root>/v2/units/<pass>/<pack name>.pack

The first shape is a full :class:`CompileResult` keyed on ``(source
hash, options hash)`` (``CompileOptions.options_hash``). Options hold
only what shapes the output — where a result is stored is the store's
business, never a key's — so a ``persist=False`` reader hits entries a
``persist=True`` writer left, and a store directory keeps working after
being moved, mounted elsewhere, or exported to another host. The second
is a *pack*: the artifacts one pass computed for its *compilation
units* (see :mod:`repro.pipeline.units`) in one compile, which is how
an edited workload's recompile reuses the unchanged units other
processes compiled. A pack's header maps each unit key to its payload's
offset and length; every other durable unit write (a module's bytecode
at its first run, a peer hit promoted onto this disk) is a one-unit
pack. A :class:`PackIndex` finds units: a lookup that misses opens the
unit's own one-unit pack, else lists the pass's pack directory and
reads the headers of packs it has not seen — unless the directory's
mtime says nothing changed since it last did, so a miss stays one
``stat`` in a store of any size.

Each result file and each unit payload is one payload from
:mod:`repro.storage.base` — both the format and the repro version are
checked on load, so an entry written by a different repro version is a
clean miss (and deleted) rather than an attribute-drift surprise.
Compiled modules travel as generated source (their exec'd namespaces
rebuild lazily on first run — see ``codegen.python_backend``), so a
warm-store compile costs a file read plus an unpickle, not a module
exec; that first run loads the module's bytecode from its
``units/bytecode/`` pack when the store holds one.

Concurrency: writes go to a temp file in the destination directory and
are published with ``os.replace`` (atomic on POSIX), so a reader never
observes a half-written file and two processes racing to publish the
same result or the same units both leave a complete file. A pack that
changed since its header was read is read again. Corrupt files are
deleted and treated as misses; a file that cannot be read now (no
permission, out of descriptors) is a plain miss and stays. Eviction is
LRU by file mtime (a pack's, for its units) under a total byte budget;
``fetch`` touches the file it read so recently served artifacts
survive.

Results whose programs carry non-portable pure-function impls (lambdas,
closures — anything keyed by ``id()``, see
:func:`repro.pipeline.options.impl_ref`) are never spilled: their cache
keys are not stable across processes, so persisting them could at best
never hit and at worst alias.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.storage.base import (
    FORMAT_VERSION,
    RESULT,
    UNIT,
    artifact_path,
    counter_name,
    decode,
    encode,
    encode_pack,
    is_content_hash,
    is_safe_pass_name,
    pack_dir,
    pack_path,
    read_pack_header,
)

_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

# compact() only reclaims .tmp files older than this: younger ones may
# be a concurrent writer between mkstemp and os.replace
_TMP_GRACE_SECONDS = 60.0

# every stored file of each kind, for the eviction and GC sweeps
_GLOBS = {
    RESULT: artifact_path(RESULT, ("*", "*")),
    UNIT: f"{pack_dir('*')}/*.pack",
}

_COUNTERS = (
    "spills", "spill_skips", "spill_errors", "loads", "load_misses",
    "load_errors", "unit_spills", "unit_spill_errors", "unit_loads",
    "unit_load_misses", "unit_load_errors", "evictions", "compactions",
    "compacted_entries", "compacted_bytes", "gc_runs", "gc_removed",
    "gc_reclaimed_bytes",
)


class BadPack(Exception):
    """The pack that the index names for a unit cannot be read."""


def _identity(stat) -> tuple[int, int]:
    """What tells one pack file from a rewrite of it under its name."""
    return stat.st_ino, stat.st_size


def _settled(mtime_ns: int) -> bool:
    """Whether any later change to a directory must move its mtime off
    *mtime_ns*. File systems stamp changes from a clock that lags by up
    to a tick, and some keep whole (even) seconds only, so a change
    right after a listing can carry the mtime the listing saw."""
    tick = 2 * 10**9 if mtime_ns % 10**9 == 0 else 10**8
    return time.time_ns() - mtime_ns >= tick


class PackIndex:
    """Where each unit of one store directory lies: ``(pass, unit key)``
    -> ``(pack path, offset, length)``, read from pack headers.

    Built lazily, one pass at a time. A lookup that misses first opens
    the unit's own one-unit pack (how a module's bytecode and a promoted
    peer hit are stored), then lists ``units/<pass>/`` and reads the
    headers of the packs it has not seen yet (forgetting the ones no
    longer listed). It skips both when the pass directory's mtime is the
    one a complete listing saw, so a miss costs one ``stat`` however
    many packs the store holds, and a process that only loads bytecode
    reads only the bytecode packs it needs. When two packs hold one
    unit, the one read last serves it and the other takes over if it
    goes. A pack whose file changed since its header was read (a writer
    replaced it under the same name) is read again before a payload is
    sliced out of it; one that is gone is a miss. File I/O runs outside
    the index's lock, which guards only the maps.

    A *bad* pack — a header that is not a current-format pack's, or a
    payload cut short — is reported to *on_bad* once. With *prune* (a
    writable store) its file is deleted; without (a read-only peer's
    directory) it stays, and the index never reads it again. A file that
    cannot be read now (no permission, out of descriptors, an I/O error)
    is not bad: that lookup misses and the index keeps the pack.
    """

    def __init__(
        self,
        root: Path,
        on_bad: Callable[[], None] = lambda: None,
        prune: bool = False,
    ):
        self.root = Path(root)
        self._on_bad = on_bad
        self.prune = prune
        self._lock = threading.Lock()
        # pass -> {pack file name: its identity when its header was
        # read}; None marks a bad pack a read-only index keeps away from
        self._seen: dict[str, dict[str, Optional[tuple[int, int]]]] = {}
        # pass -> its directory's mtime when a listing read all of it
        self._listed: dict[str, int] = {}
        # pack path -> the unit keys its header named
        self._held: dict[Path, tuple[str, ...]] = {}
        # (pass, unit key) -> {pack path: (offset, length)} in the order
        # the packs were read; the last one serves
        self._slots: dict[tuple[str, str], dict[Path, tuple[int, int]]] = {}

    # -- what a writer and the sweeps tell the index --------------------

    def add(self, pack: Path, pass_name: str, slots: dict, identity):
        """Index one pack's header: one this process just published, or
        one just read."""
        with self._lock:
            self._drop(pack)
            self._seen.setdefault(pass_name, {})[pack.name] = identity
            self._held[pack] = tuple(slots)
            for key, place in slots.items():
                self._slots.setdefault((pass_name, key), {})[pack] = place

    def forget(self, pack: Path) -> None:
        """Drop a pack whose file was deleted."""
        with self._lock:
            self._drop(pack)

    def discard(self, pack: Path) -> None:
        """A pack whose payload failed to decode: dropped (and deleted
        when pruning) without a report — its reader counts it."""
        self._condemn(pack, report=False)

    # -- lookups --------------------------------------------------------

    def locate(self, pass_name: str, key: str):
        """``(pack path, offset, length)`` of one unit, or ``None``."""
        if not (is_safe_pass_name(pass_name) and is_content_hash(key)):
            return None
        slot = self._slot(pass_name, key)
        if slot is None:
            self._refresh(pass_name, key)
            slot = self._slot(pass_name, key)
        return slot

    def read(self, pass_name: str, key: str):
        """``(payload blob, pack path)`` of one unit, or ``None`` when no
        pack holds it or its pack cannot be read now. Raises
        :class:`BadPack` when the pack the index names for it is bad
        (reported, and pruned, already)."""
        # a second try when the named pack was deleted under the index:
        # another pack may hold the unit too
        for _ in range(2):
            slot = self.locate(pass_name, key)
            if slot is None:
                return None
            try:
                return self._slice(pass_name, key, *slot)
            except FileNotFoundError:
                self.forget(slot[0])
        return None

    def units(self) -> dict[str, set[str]]:
        """Every indexed unit key by pass, after reading every pack
        header not read yet."""
        try:
            names = [
                entry.name
                for entry in os.scandir(self.root / "units")
                if entry.is_dir() and is_safe_pass_name(entry.name)
            ]
        except OSError:
            names = []
        with self._lock:
            # a pass whose directory went away forgets its packs too
            names += [name for name in self._seen if name not in names]
        for name in names:
            self._refresh(name)
        with self._lock:
            held: dict[str, set[str]] = {}
            for pass_name, key in self._slots:
                held.setdefault(pass_name, set()).add(key)
        return held

    # -- reading packs (no lock held) -----------------------------------

    def _slice(self, pass_name, key, pack, offset, length):
        try:
            with open(pack, "rb") as handle:
                identity = _identity(os.fstat(handle.fileno()))
                with self._lock:
                    known = self._seen.get(pass_name, {}).get(pack.name)
                if identity != known:
                    # rewritten under its name: read it again
                    slots = read_pack_header(handle)
                    self.add(pack, pass_name, slots, identity)
                    if key not in slots:
                        return None
                    offset, length = slots[key]
                handle.seek(offset)
                blob = handle.read(length)
        except ValueError:
            self._condemn(pack)
            raise BadPack(pack) from None
        except FileNotFoundError:
            raise  # read() looks for another pack that holds the unit
        except OSError:
            return None
        if len(blob) != length:
            self._condemn(pack)
            raise BadPack(pack)
        return blob, pack

    def _load(self, pack: Path, pass_name: str) -> Optional[bool]:
        """Read one pack's header into the index: ``True`` when read,
        ``False`` when the pack is gone or bad, ``None`` when it cannot
        be read now."""
        try:
            with open(pack, "rb") as handle:
                identity = _identity(os.fstat(handle.fileno()))
                slots = read_pack_header(handle)
        except FileNotFoundError:
            return False
        except ValueError:
            self._condemn(pack)
            return False
        except OSError:
            return None
        self.add(pack, pass_name, slots, identity)
        return True

    def _refresh(self, pass_name: str, key: Optional[str] = None) -> None:
        """Read into the index what a lookup (of *key*) may be missing:
        the unit's own one-unit pack, else every pack of the pass not
        read yet. Reads nothing when the pass directory is unchanged
        since a listing read all of it."""
        directory = self.root / pack_dir(pass_name)
        try:
            mtime = os.stat(directory).st_mtime_ns
        except OSError:
            mtime = None
        with self._lock:
            if mtime is not None and self._listed.get(pass_name) == mtime:
                return
            known = self._seen.setdefault(pass_name, {})
            if mtime is None and not known:
                return
        if key is not None and mtime is not None:
            alone = pack_path(pass_name, [key]).rpartition("/")[2]
            if alone not in known and self._load(
                directory / alone, pass_name
            ):
                return
        try:
            listed = {
                entry.name
                for entry in os.scandir(directory)
                if entry.name.endswith(".pack")
            }
        except OSError:
            listed = set()
        with self._lock:
            for gone in [name for name in known if name not in listed]:
                self._drop(directory / gone)
            unseen = sorted(name for name in listed if name not in known)
        complete = True
        for name in unseen:
            if self._load(directory / name, pass_name) is None:
                complete = False
        if complete and mtime is not None and _settled(mtime):
            with self._lock:
                self._listed[pass_name] = mtime

    def _condemn(self, pack: Path, report: bool = True) -> None:
        """A bad pack: dropped, and deleted or kept away from."""
        with self._lock:
            self._drop(pack)
            if not self.prune:
                self._seen.setdefault(pack.parent.name, {})[pack.name] = None
        if self.prune:
            try:
                pack.unlink()
            except OSError:
                pass
        if report:
            self._on_bad()

    # -- the maps -------------------------------------------------------

    def _slot(self, pass_name: str, key: str):
        with self._lock:
            holders = self._slots.get((pass_name, key))
            if not holders:
                return None
            pack = next(reversed(holders))
            return (pack, *holders[pack])

    def _drop(self, pack) -> None:
        """Forget one pack (lock held): each unit it held is served by
        another pack that holds it, or missed."""
        pass_name = pack.parent.name
        self._seen.get(pass_name, {}).pop(pack.name, None)
        for key in self._held.pop(pack, ()):
            holders = self._slots.get((pass_name, key), {})
            holders.pop(pack, None)
            if not holders:
                self._slots.pop((pass_name, key), None)


class DiskTier:
    """On-disk LRU store of compile results, keyed by content hashes."""

    kind = "disk"
    writable = True

    def __init__(self, root: str, max_bytes: int = _DEFAULT_MAX_BYTES):
        self.root = Path(root)
        self.dir = self.root / f"v{FORMAT_VERSION}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # running spill-bytes estimate so evict() only pays a full
        # directory scan when the budget is plausibly exceeded; the
        # first spill always scans, so bytes a *previous* process left
        # behind (a reopened or CI-restored store) count against the
        # budget too
        self._bytes_since_scan = 0
        self._scanned = False
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self.packs = PackIndex(
            self.dir,
            on_bad=lambda: self._count(UNIT, "load_errors"),
            prune=True,
        )

    @property
    def label(self) -> str:
        return f"disk:{self.root}"

    def _count(self, kind: str, name: str, by: int = 1) -> None:
        with self._lock:
            self.counts[counter_name(kind, name)] += by

    # -- the Tier face --------------------------------------------------

    def fetch(self, kind: str, key):
        """``(artifact, payload blob)`` or ``None``. The blob is the
        exact bytes on disk, which a :class:`TieredStore` hands to
        another durable tier's ``store`` so promotion costs a file
        write, not a re-pickle. Touches the file it read (LRU recency);
        removes files that fail to deserialize or were written by a
        different format/repro version."""
        if kind == UNIT:
            try:
                found = self.packs.read(*key)
            except BadPack:
                return None  # counted as a load error by the index
            if found is None:
                self._count(kind, "load_misses")
                return None
            blob, path = found
        else:
            path = self.dir / artifact_path(kind, key)
            try:
                blob = path.read_bytes()
            except OSError:
                self._count(kind, "load_misses")
                return None
        try:
            artifact = decode(kind, blob)
        except Exception:
            # a corrupt/foreign file is a miss; drop it so it cannot
            # keep failing (and cannot count against the byte budget)
            self._count(kind, "load_errors")
            if kind == UNIT:
                self.packs.discard(path)
            else:
                self._unlink(path)
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self._count(kind, "loads")
        return artifact, blob

    def payload(self, kind: str, key) -> Optional[bytes]:
        """The stored payload bytes of one artifact, or ``None`` — what
        the service's ``GET /artifact/...`` answers. Counts and touches
        nothing."""
        if kind == UNIT:
            try:
                found = self.packs.read(*key)
            except BadPack:
                return None
            return None if found is None else found[0]
        try:
            return (self.dir / artifact_path(kind, key)).read_bytes()
        except OSError:
            return None

    def store(
        self, kind: str, key, artifact, blob: Optional[bytes] = None,
        promoted: bool = False,
    ) -> bool:
        """Persist one artifact (atomic publish; best-effort).

        Returns ``True`` when the artifact is on disk afterwards.
        Results with non-portable impls are skipped (counted in
        ``spill_skips``); unit artifacts (fusion plans, emitted module
        functions) never embed pure-function impls — generated code
        binds them at run time through ``RT.pure`` — so they are always
        portable, and one is written as a one-unit pack
        (:meth:`store_pack`). Serialization/IO failures are counted in
        ``spill_errors``/``unit_spill_errors`` and never propagate —
        persistence is an optimization, not a correctness requirement.
        ``blob`` short-circuits serialization with an already-encoded
        payload (the promotion path: the bytes just decoded from a peer
        or another store are republished verbatim). ``promoted`` makes
        no difference here.
        """
        if kind == UNIT:
            pass_name, unit_key = key
            return self.store_pack(
                pass_name, [(unit_key, artifact, blob)]
            ) == 1
        from repro.pipeline.options import impls_portable

        if artifact.program is None or not impls_portable(
            artifact.program
        ):
            self._count(kind, "spill_skips")
            return False
        if blob is None:
            try:
                blob = encode(kind, artifact)
            except Exception:
                self._count(kind, "spill_errors")
                return False
        if self._publish(self.dir / artifact_path(kind, key), blob) is None:
            self._count(kind, "spill_errors")
            return False
        self._spilled(kind, 1, len(blob))
        return True

    def store_pack(self, pass_name: str, units) -> int:
        """Persist one pass's units as one pack (atomic publish;
        best-effort): *units* are ``(unit key, artifact, blob or
        None)`` triples, each blob an already-encoded payload. Returns
        how many units the pack holds; a unit that fails to serialize
        is left out and counted in ``unit_spill_errors``, as is every
        unit of a pack that could not be written."""
        blobs = {}
        for unit_key, artifact, blob in units:
            if not (is_safe_pass_name(pass_name) and is_content_hash(
                unit_key
            )):
                # a pack names its units by their 32 digest bytes, and
                # lands under a directory named after its pass
                self._count(UNIT, "spill_errors")
                continue
            if blob is None:
                try:
                    blob = encode(UNIT, artifact)
                except Exception:
                    self._count(UNIT, "spill_errors")
                    continue
            blobs[unit_key] = blob
        if not blobs:
            return 0
        data, slots = encode_pack(blobs)
        path = self.dir / pack_path(pass_name, blobs)
        identity = self._publish(path, data)
        if identity is None:
            self._count(UNIT, "spill_errors", len(blobs))
            return 0
        self.packs.add(path, pass_name, slots, identity)
        self._spilled(UNIT, len(blobs), len(data))
        return len(blobs)

    # -- write ----------------------------------------------------------

    def _publish(self, path: Path, data: bytes):
        """Atomic write (temp file + ``os.replace``); best-effort. The
        file's identity (see :class:`PackIndex`), or ``None``."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".spill-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    identity = _identity(os.fstat(handle.fileno()))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return None
        return identity

    def _spilled(self, kind: str, count: int, size: int) -> None:
        with self._lock:
            self.counts[counter_name(kind, "spills")] += count
            scan = self._account(size)
        if scan:
            self.evict()

    def _account(self, size: int) -> bool:
        """Grow the running byte estimate; True when a scan is due.
        Call with the lock held. The running estimate only grows between
        scans, so after the initial scan a full one happens at most once
        per max_bytes of spilled data."""
        self._bytes_since_scan += size
        return not self._scanned or self._bytes_since_scan > self.max_bytes

    def _unlink(self, path: Path) -> bool:
        """Delete one stored file, and its units from the index."""
        try:
            path.unlink()
        except OSError:
            return False
        if path.suffix == ".pack":
            self.packs.forget(path)
        return True

    # -- eviction -------------------------------------------------------

    def _entries(
        self, patterns: tuple[str, ...] = tuple(_GLOBS.values())
    ) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for stored files — by default both full
        results and unit packs, which share one LRU byte budget."""
        entries = []
        for pattern in patterns:
            for path in self.dir.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def evict(self) -> int:
        """Delete least-recently-used files until the store fits the
        byte budget. Returns the number of files removed."""
        with self._lock:
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            removed = 0
            for _, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                if not self._unlink(path):
                    continue
                total -= size
                removed += 1
            self.counts["evictions"] += removed
            self._bytes_since_scan = total
            self._scanned = True
            return removed

    # -- per-pass / policy gc -------------------------------------------

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """Policy-driven reclamation the LRU sweep can't express.

        ``pass_name`` scopes the sweep to one pass's unit packs
        (``units/<pass>/``), leaving every other pass's units and all
        full results untouched; without it the scope is the whole store.
        ``max_age_seconds`` drops scope files whose mtime is older than
        that (0 drops the whole scope); ``max_bytes`` LRU-trims the
        scope to a byte target. A pass-scoped call with no other policy
        drops that pass's units outright; a completely bare ``gc()``
        would silently mean "delete everything" and is refused.
        """
        if (
            pass_name is None
            and max_age_seconds is None
            and max_bytes is None
        ):
            raise ValueError(
                "gc needs a pass_name, max_age_seconds, and/or "
                "max_bytes (use clear() to drop a whole store)"
            )
        if pass_name is not None and not is_safe_pass_name(pass_name):
            # the scope lands in a glob pattern under the store root; a
            # traversal-shaped name must never reach the filesystem
            # (POST /gc feeds this from network input)
            raise ValueError(f"invalid pass name {pass_name!r}")
        if pass_name is not None and max_age_seconds is None and (
            max_bytes is None
        ):
            max_age_seconds = 0.0  # "drop the pass"
        patterns = (
            (f"{pack_dir(pass_name)}/*.pack",)
            if pass_name is not None
            else tuple(_GLOBS.values())
        )
        removed = 0
        reclaimed = 0
        with self._lock:
            entries = sorted(self._entries(patterns))
            if max_age_seconds is not None:
                cutoff = time.time() - max_age_seconds
                kept = []
                for mtime, size, path in entries:
                    if mtime > cutoff or not self._unlink(path):
                        kept.append((mtime, size, path))
                        continue
                    removed += 1
                    reclaimed += size
                entries = kept
            if max_bytes is not None:
                total = sum(size for _, size, _ in entries)
                for mtime, size, path in entries:
                    if total <= max_bytes:
                        break
                    if not self._unlink(path):
                        continue
                    total -= size
                    removed += 1
                    reclaimed += size
            # refresh the eviction estimate from what actually remains
            self._bytes_since_scan = sum(
                size for _, size, _ in self._entries()
            )
            self._scanned = True
            self.counts["gc_runs"] += 1
            self.counts["gc_removed"] += removed
            self.counts["gc_reclaimed_bytes"] += reclaimed
        return {"removed": removed, "reclaimed_bytes": reclaimed}

    # -- compaction -----------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Drop every file the current process could never serve.

        A long-lived store accumulates dead weight that LRU eviction
        alone never reclaims promptly: whole directory trees left by
        other *format* versions (normal loads never look inside them),
        entries written by other *repro* versions (every load of one is
        a miss-and-delete, but only when its exact key is asked for),
        corrupt files and packs, and stale ``.spill-*.tmp`` droppings
        from crashed writers (fresh ones are spared — they may be a live
        writer mid-publish). Compaction scans once, deletes all of
        them, and refreshes the byte estimate. A pack goes whole when
        its header or any of its payloads fails to load. Returns the
        per-run summary; cumulative counters land in :meth:`stats` (and
        therefore the service ``/stats`` endpoint).
        """
        import shutil

        removed = 0
        reclaimed = 0
        # whole trees left by other *format* versions (a FORMAT_VERSION
        # bump with a shared or CI-restored store dir): normal loads
        # never even look inside them, so only compaction can reclaim
        for version_dir in self.root.glob("v*"):
            if version_dir == self.dir or not version_dir.is_dir():
                continue
            for stale in version_dir.rglob("*"):
                if stale.is_file():
                    removed += 1
                    try:
                        reclaimed += stale.stat().st_size
                    except OSError:
                        pass
            shutil.rmtree(version_dir, ignore_errors=True)
        now = time.time()
        for tmp in self.dir.rglob(".spill-*.tmp"):
            try:
                stat = tmp.stat()
                # a fresh tmp file may be a concurrent writer mid-spill
                # (created by mkstemp, not yet os.replace'd) — only
                # files old enough to be crash droppings are dead
                if now - stat.st_mtime < _TMP_GRACE_SECONDS:
                    continue
                size = stat.st_size
                tmp.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += size
        for kind, pattern in _GLOBS.items():
            for _, size, path in self._entries((pattern,)):
                if _servable(kind, path):
                    continue
                if self._unlink(path):
                    removed += 1
                    reclaimed += size
        with self._lock:
            self.counts["compactions"] += 1
            self.counts["compacted_entries"] += removed
            self.counts["compacted_bytes"] += reclaimed
            # the estimate drove eviction scans; refresh it from disk
            self._bytes_since_scan = sum(
                size for _, size, _ in self._entries()
            )
            self._scanned = True
        return {"removed": removed, "reclaimed_bytes": reclaimed}

    # -- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        """Full-result entries only (unit artifacts are counted in
        :meth:`stats` under ``unit_entries``)."""
        return len(self._entries((_GLOBS[RESULT],)))

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def clear(self) -> None:
        for _, _, path in self._entries():
            self._unlink(path)

    def stats(self) -> dict[str, int]:
        results = self._entries((_GLOBS[RESULT],))
        packs = self._entries((_GLOBS[UNIT],))
        return {
            "entries": len(results),
            "unit_entries": sum(
                len(keys) for keys in self.packs.units().values()
            ),
            "bytes": sum(size for _, size, _ in results)
            + sum(size for _, size, _ in packs),
            **self.counts,
        }


def _servable(kind: str, path: Path) -> bool:
    """Whether every payload of one stored file decodes. A file that
    cannot be read now (no permission, out of descriptors) is kept."""
    try:
        with open(path, "rb") as handle:
            if kind == RESULT:
                blobs = [handle.read()]
            else:
                blobs = []
                for offset, length in read_pack_header(handle).values():
                    handle.seek(offset)
                    blobs.append(handle.read(length))
    except ValueError:
        return False
    except OSError:
        return True
    try:
        for blob in blobs:
            decode(kind, blob)
    except Exception:
        return False
    return True


_TIERS: dict[str, DiskTier] = {}
_TIERS_LOCK = threading.Lock()


def disk_tier_for(root: str) -> DiskTier:
    """Process-wide disk-tier registry, one instance per resolved
    directory (so every store over the same directory shares counters
    and the eviction lock)."""
    resolved = os.path.abspath(root)
    with _TIERS_LOCK:
        tier = _TIERS.get(resolved)
        if tier is None:
            tier = DiskTier(resolved)
            _TIERS[resolved] = tier
        return tier
