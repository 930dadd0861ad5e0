"""The durable tier: a persistent, content-addressed artifact directory.

The v1 layout, atomic temp-file + ``os.replace`` publishes, LRU
byte-budget eviction, and a compaction sweep, behind the
:class:`~repro.storage.base.Tier` face (``get_result``/``put_result``/
``get_unit``/``put_unit``) plus per-pass :meth:`gc` — which is how the
:class:`~repro.storage.tiered.TieredStore` composes a disk directory
with the memory LRU above it and read-only peers below.

Layout (versioned so future formats never misread old files)::

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
plus an unpickle, not a module exec.

Concurrency: writes go to a temp file in the destination directory and
are published with ``os.replace`` (atomic on POSIX), so a reader never
observes a half-written artifact and two processes racing to spill the
same key both leave a complete file. Corrupt or unreadable entries are
deleted and treated as misses. Eviction is LRU by file mtime under a
total byte budget; ``load`` touches the file's mtime so recently served
artifacts survive.

Results whose programs carry non-portable pure-function impls (lambdas,
closures — anything keyed by ``id()``, see
:func:`repro.pipeline.options.impl_ref`) are never spilled: their cache
keys are not stable across processes, so persisting them could at best
never hit and at worst alias.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from repro import __version__
from repro.storage.base import (
    FORMAT_VERSION,
    ResultKey,
    decode_result,
    decode_unit,
    encode_result,
    encode_unit,
    is_safe_pass_name,
)

_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

# compact() only reclaims .tmp files older than this: younger ones may
# be a concurrent writer between mkstemp and os.replace
_TMP_GRACE_SECONDS = 60.0


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
        self.spills = 0
        self.spill_skips = 0
        self.spill_errors = 0
        self.loads = 0
        self.load_misses = 0
        self.load_errors = 0
        self.unit_spills = 0
        self.unit_spill_errors = 0
        self.unit_loads = 0
        self.unit_load_misses = 0
        self.unit_load_errors = 0
        self.evictions = 0
        self.compactions = 0
        self.compacted_entries = 0
        self.compacted_bytes = 0
        self.gc_runs = 0
        self.gc_removed = 0
        self.gc_reclaimed_bytes = 0

    @property
    def label(self) -> str:
        return f"disk:{self.root}"

    # -- paths ----------------------------------------------------------

    def path_for(self, source_hash: str, output_hash: str) -> Path:
        return (
            self.dir / source_hash[:2] / f"{source_hash}-{output_hash}.pkl"
        )

    def unit_path_for(self, pass_name: str, key: str) -> Path:
        """Per-unit pass artifacts live beside the full results, bucketed
        by pass name: ``<root>/v1/units/<pass>/<key[:2]>/<key>.pkl``."""
        return self.dir / "units" / pass_name / key[:2] / f"{key}.pkl"

    # -- the Tier face --------------------------------------------------

    def get_result(self, key: ResultKey):
        return self.load(key.source_hash, key.output_hash)

    def put_result(self, key: ResultKey, result, promoted: bool = False):
        # the disk key comes from the result's own hashes (identical to
        # the requested output half — only output fields participate)
        return self.spill(result)

    def get_unit(self, pass_name: str, key: str):
        return self.load_unit(pass_name, key)

    def put_unit(self, pass_name: str, key: str, artifact) -> None:
        self.spill_unit(pass_name, key, artifact)

    # -- the blob face (read-through promotion without re-encoding) -----

    def fetch_result(self, key: ResultKey):
        """``(result, payload blob)`` or ``None`` — the blob is the
        exact bytes on disk, which a :class:`TieredStore` hands to
        another durable tier's ``promote_result`` so promotion costs a
        file write, not a re-pickle."""
        return self._fetch(key.source_hash, key.output_hash)

    def promote_result(self, key: ResultKey, result, blob: bytes) -> bool:
        """Adopt a hit served by a lower tier, republishing its
        already-validated payload bytes verbatim."""
        return self.spill(result, blob=blob)

    def fetch_unit(self, pass_name: str, key: str):
        """``(artifact, payload blob)`` or ``None`` — the unit-artifact
        twin of :meth:`fetch_result`."""
        return self._fetch_unit(pass_name, key)

    def promote_unit(
        self, pass_name: str, key: str, artifact, blob: bytes
    ) -> bool:
        return self.spill_unit(pass_name, key, artifact, blob=blob)

    # -- read -----------------------------------------------------------

    def load(self, source_hash: str, output_hash: str):
        """The stored result for a key, or ``None``. Touches the entry's
        mtime (LRU recency); removes entries that fail to deserialize or
        were written by a different format/repro version."""
        got = self._fetch(source_hash, output_hash)
        return None if got is None else got[0]

    def _fetch(self, source_hash: str, output_hash: str):
        path = self.path_for(source_hash, output_hash)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self.load_misses += 1
            return None
        try:
            result = decode_result(blob)
        except Exception:
            # a corrupt/foreign file is a miss; drop it so it cannot
            # keep failing (and cannot count against the byte budget)
            with self._lock:
                self.load_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self.loads += 1
        return result, blob

    # -- write ----------------------------------------------------------

    def spill(self, result, blob: Optional[bytes] = None) -> bool:
        """Persist one compile result (atomic publish; best-effort).

        Returns ``True`` when the artifact is on disk afterwards.
        Results with non-portable impls are skipped (counted in
        ``spill_skips``); serialization/IO failures are counted in
        ``spill_errors`` and never propagate — persistence is an
        optimization, not a correctness requirement. ``blob`` short-
        circuits serialization with an already-encoded payload (the
        promotion path: the bytes just decoded from a peer or another
        store are republished verbatim).
        """
        from repro.pipeline.options import impls_portable

        if result.program is None or not impls_portable(result.program):
            with self._lock:
                self.spill_skips += 1
            return False
        path = self.path_for(
            result.source_hash, result.options.output_hash()
        )
        if blob is None:
            try:
                blob = encode_result(result)
            except Exception:
                with self._lock:
                    self.spill_errors += 1
                return False
        if not self._publish(path, blob):
            with self._lock:
                self.spill_errors += 1
            return False
        with self._lock:
            self.spills += 1
            scan = self._account(len(blob))
        if scan:
            self.evict()
        return True

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

    # -- per-unit pass artifacts ----------------------------------------

    def spill_unit(
        self, pass_name: str, key: str, artifact,
        blob: Optional[bytes] = None,
    ) -> bool:
        """Persist one pass's artifact for one compilation unit.

        Unit artifacts (fusion plans, emitted module functions) never
        embed pure-function impls — generated code binds them at run
        time through ``RT.pure`` — so unlike full results they are
        always portable and need no ``impls_portable`` gate. ``blob``
        short-circuits serialization like :meth:`spill`.
        """
        if blob is None:
            try:
                blob = encode_unit(artifact)
            except Exception:
                with self._lock:
                    self.unit_spill_errors += 1
                return False
        if not self._publish(self.unit_path_for(pass_name, key), blob):
            with self._lock:
                self.unit_spill_errors += 1
            return False
        with self._lock:
            self.unit_spills += 1
            scan = self._account(len(blob))
        if scan:
            self.evict()
        return True

    def load_unit(self, pass_name: str, key: str):
        """The stored unit artifact, or ``None``. Same recency touch and
        corrupt/foreign-version handling as :meth:`load`."""
        got = self._fetch_unit(pass_name, key)
        return None if got is None else got[0]

    def _fetch_unit(self, pass_name: str, key: str):
        path = self.unit_path_for(pass_name, key)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self.unit_load_misses += 1
            return None
        try:
            artifact = decode_unit(blob)
        except Exception:
            with self._lock:
                self.unit_load_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self.unit_loads += 1
        return artifact, blob

    # -- eviction -------------------------------------------------------

    _RESULT_GLOB = "[0-9a-f][0-9a-f]/*.pkl"
    _UNIT_GLOB = "units/*/*/*.pkl"

    def _entries(
        self, patterns: tuple[str, ...] = (_RESULT_GLOB, _UNIT_GLOB)
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
            self.evictions += removed
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
            (f"units/{pass_name}/*/*.pkl",)
            if pass_name is not None
            else (self._RESULT_GLOB, self._UNIT_GLOB)
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
            self.gc_runs += 1
            self.gc_removed += removed
            self.gc_reclaimed_bytes += reclaimed
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
        for _, _, path in self._entries():
            try:
                payload = pickle.loads(path.read_bytes())
                keep = (
                    payload.get("format") == FORMAT_VERSION
                    and payload.get("repro") == __version__
                )
            except Exception:
                keep = False
            if keep:
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += size
        with self._lock:
            self.compactions += 1
            self.compacted_entries += removed
            self.compacted_bytes += reclaimed
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
        return len(self._entries((self._RESULT_GLOB,)))

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def clear(self) -> None:
        for _, _, path in self._entries():
            try:
                path.unlink()
            except OSError:
                pass

    def stats(self) -> dict[str, int]:
        results = self._entries((self._RESULT_GLOB,))
        units = self._entries((self._UNIT_GLOB,))
        return {
            "entries": len(results),
            "unit_entries": len(units),
            "bytes": sum(size for _, size, _ in results)
            + sum(size for _, size, _ in units),
            "spills": self.spills,
            "spill_skips": self.spill_skips,
            "spill_errors": self.spill_errors,
            "loads": self.loads,
            "load_misses": self.load_misses,
            "load_errors": self.load_errors,
            "unit_spills": self.unit_spills,
            "unit_spill_errors": self.unit_spill_errors,
            "unit_loads": self.unit_loads,
            "unit_load_misses": self.unit_load_misses,
            "unit_load_errors": self.unit_load_errors,
            "evictions": self.evictions,
            "compactions": self.compactions,
            "compacted_entries": self.compacted_entries,
            "compacted_bytes": self.compacted_bytes,
            "gc_runs": self.gc_runs,
            "gc_removed": self.gc_removed,
            "gc_reclaimed_bytes": self.gc_reclaimed_bytes,
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
