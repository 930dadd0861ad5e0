"""The durable tier: a persistent, content-addressed artifact directory.

The v1 layout, atomic temp-file + ``os.replace`` publishes, LRU
byte-budget eviction, and a compaction sweep, behind the
:class:`~repro.storage.base.Tier` face (``fetch``/``store``) plus
per-pass :meth:`gc` — which is how the
:class:`~repro.storage.tiered.TieredStore` composes a disk directory
with the memory LRU above it and read-only peers below.

Layout (versioned so future formats never misread old files; see
:func:`~repro.storage.base.artifact_path`)::

    <root>/v1/<source_hash[:2]>/<source_hash>-<output_hash>.pkl
    <root>/v1/units/<pass>/<unit_key[:2]>/<unit_key>.pkl

The first shape is a full :class:`CompileResult` keyed on ``(source
hash, output-options hash)`` — the *output-affecting* options only
(``CompileOptions.output_hash``), so caching knobs don't fragment the
key space: a ``persist=False`` reader hits entries a ``persist=True``
writer left, and a store directory keeps working after being moved,
mounted elsewhere, or exported to another host. The second is one
pass's artifact for one *compilation unit* (see
:mod:`repro.pipeline.units`), which is how an edited workload's
recompile reuses the unchanged units other processes compiled.

Each file is one payload from :mod:`repro.storage.base` — both the
format and the repro version are checked on load, so an entry written
by a different repro version is a clean miss (and deleted) rather than
an attribute-drift surprise. Compiled modules travel as generated
source (their exec'd namespaces rebuild lazily on first run — see
``codegen.python_backend``), so a warm-store compile costs a file read
plus an unpickle, not a module exec; that first run loads the module's
bytecode from its ``units/bytecode/`` unit when the store holds one.

Concurrency: writes go to a temp file in the destination directory and
are published with ``os.replace`` (atomic on POSIX), so a reader never
observes a half-written artifact and two processes racing to spill the
same key both leave a complete file. Corrupt or unreadable entries are
deleted and treated as misses. Eviction is LRU by file mtime under a
total byte budget; ``fetch`` touches the file's mtime so recently
served artifacts survive.

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
from typing import Optional

from repro.storage.base import (
    FORMAT_VERSION,
    RESULT,
    UNIT,
    artifact_path,
    counter_name,
    decode,
    encode,
    is_safe_pass_name,
)

_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

# compact() only reclaims .tmp files older than this: younger ones may
# be a concurrent writer between mkstemp and os.replace
_TMP_GRACE_SECONDS = 60.0

# every stored artifact of each kind, for the eviction and GC sweeps
_GLOBS = {kind: artifact_path(kind, ("*", "*")) for kind in (RESULT, UNIT)}

_COUNTERS = (
    "spills", "spill_skips", "spill_errors", "loads", "load_misses",
    "load_errors", "unit_spills", "unit_spill_errors", "unit_loads",
    "unit_load_misses", "unit_load_errors", "evictions", "compactions",
    "compacted_entries", "compacted_bytes", "gc_runs", "gc_removed",
    "gc_reclaimed_bytes",
)


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

    @property
    def label(self) -> str:
        return f"disk:{self.root}"

    def _count(self, kind: str, name: str) -> None:
        with self._lock:
            self.counts[counter_name(kind, name)] += 1

    # -- the Tier face --------------------------------------------------

    def fetch(self, kind: str, key):
        """``(artifact, payload blob)`` or ``None``. The blob is the
        exact bytes on disk, which a :class:`TieredStore` hands to
        another durable tier's ``store`` so promotion costs a file
        write, not a re-pickle. Touches the entry's mtime (LRU
        recency); removes entries that fail to deserialize or were
        written by a different format/repro version."""
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
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self._count(kind, "loads")
        return artifact, blob

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
        portable. Serialization/IO failures are counted in
        ``spill_errors``/``unit_spill_errors`` and never propagate —
        persistence is an optimization, not a correctness requirement.
        ``blob`` short-circuits serialization with an already-encoded
        payload (the promotion path: the bytes just decoded from a peer
        or another store are republished verbatim). ``promoted`` makes
        no difference here.
        """
        if kind == RESULT:
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
        if not self._publish(self.dir / artifact_path(kind, key), blob):
            self._count(kind, "spill_errors")
            return False
        with self._lock:
            self.counts[counter_name(kind, "spills")] += 1
            scan = self._account(len(blob))
        if scan:
            self.evict()
        return True

    # -- write ----------------------------------------------------------

    def _publish(self, path: Path, blob: bytes) -> bool:
        """Atomic write (temp file + ``os.replace``); best-effort."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".spill-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def _account(self, size: int) -> bool:
        """Grow the running byte estimate; True when a scan is due.
        Call with the lock held. The running estimate only grows between
        scans, so after the initial scan a full one happens at most once
        per max_bytes of spilled data."""
        self._bytes_since_scan += size
        return not self._scanned or self._bytes_since_scan > self.max_bytes

    # -- eviction -------------------------------------------------------

    def _entries(
        self, patterns: tuple[str, ...] = tuple(_GLOBS.values())
    ) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for stored artifacts — by default both
        full results and per-unit pass artifacts, which share one LRU
        byte budget."""
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
        """Delete least-recently-used artifacts until the store fits the
        byte budget. Returns the number of files removed."""
        with self._lock:
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            removed = 0
            for _, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
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

        ``pass_name`` scopes the sweep to one pass's unit artifacts
        (``units/<pass>/``), leaving every other pass's units and all
        full results untouched; without it the scope is the whole store.
        ``max_age_seconds`` drops scope entries whose mtime is older
        than that (0 drops the whole scope); ``max_bytes`` LRU-trims the
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
            (artifact_path(UNIT, (pass_name, "*")),)
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
                    if mtime > cutoff:
                        kept.append((mtime, size, path))
                        continue
                    try:
                        path.unlink()
                    except OSError:
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
                    try:
                        path.unlink()
                    except OSError:
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
        """Drop every entry the current process could never serve.

        A long-lived store accumulates dead weight that LRU eviction
        alone never reclaims promptly: whole directory trees left by
        other *format* versions (normal loads never look inside them),
        entries written by other *repro* versions (every load of one is
        a miss-and-delete, but only when its exact key is asked for),
        corrupt files, and stale ``.spill-*.tmp`` droppings from
        crashed writers (fresh ones are spared — they may be a live
        writer mid-publish). Compaction scans once, deletes all of
        them, and refreshes the byte estimate. Returns the per-run
        summary; cumulative counters land in :meth:`stats` (and
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
            for _, _, path in self._entries((pattern,)):
                try:
                    decode(kind, path.read_bytes())
                except Exception:
                    try:
                        size = path.stat().st_size
                        path.unlink()
                    except OSError:
                        continue
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
            try:
                path.unlink()
            except OSError:
                pass

    def stats(self) -> dict[str, int]:
        results = self._entries((_GLOBS[RESULT],))
        units = self._entries((_GLOBS[UNIT],))
        return {
            "entries": len(results),
            "unit_entries": len(units),
            "bytes": sum(size for _, size, _ in results)
            + sum(size for _, size, _ in units),
            **self.counts,
        }


_TIERS: dict[str, DiskTier] = {}
_TIERS_LOCK = threading.Lock()


def disk_tier_for(root: str) -> DiskTier:
    """Process-wide disk-tier registry, one instance per resolved
    directory (so every compile naming the same ``cache_dir`` shares
    counters and the eviction lock)."""
    resolved = os.path.abspath(root)
    with _TIERS_LOCK:
        tier = _TIERS.get(resolved)
        if tier is None:
            tier = DiskTier(resolved)
            _TIERS[resolved] = tier
        return tier
