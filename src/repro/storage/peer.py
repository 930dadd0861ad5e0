"""The read-only peer tier: another host's (or process's) warm store.

Content addressing makes artifact stores shareable — the keys are pure
content hashes, so *any* store populated by a compatible repro version
can serve this process's compiles. A :class:`PeerTier` taps one of two
peer shapes:

* a **directory** — a second store root (an NFS mount, an rsync'd or
  CI-restored copy, another user's cache dir). Files are read through
  the same v1 layout as :class:`~repro.storage.disk.DiskTier`
  (:func:`~repro.storage.base.artifact_path`), but strictly read-only:
  no recency touches, no corrupt-entry deletion — the peer's hygiene is
  the peer's business.
* an **HTTP endpoint** — a running ``repro serve`` answering the
  ``GET /artifact/...`` routes (:func:`~repro.storage.base.
  artifact_route`) with the identical payload bytes the disk tier
  stores. This is the multi-host warm path: one host compiles, every
  other host's first compile is a fetch plus an unpickle.

Peers sit *below* disk in a :class:`~repro.storage.tiered.TieredStore`,
so a peer hit is promoted into the local tiers (read-through) and the
peer is asked once per artifact, not once per run. Every failure mode —
peer unreachable, timeout, 404, truncated body, corrupt pickle,
foreign format or repro version — is a counted miss, never an error:
a peer can only ever make compiles faster.

**Trust model**: payloads are pickles, and a hit is promoted into the
local store verbatim — a peer you name can execute code in every
process that compiles through it. Name only peers you would let write
your local store, and reach HTTP peers over a network you trust (the
transport does no authentication or payload signing; tunnel it if the
network is not yours).
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request
from pathlib import Path
from typing import Optional

from repro.storage.base import (
    FORMAT_VERSION,
    artifact_path,
    artifact_route,
    counter_name,
    decode,
)

_COUNTERS = (
    "hits", "misses", "errors", "unit_hits", "unit_misses", "unit_errors",
)


class PeerTier:
    """Read-only warm source: a second store root or a remote server."""

    kind = "peer"
    writable = False

    def __init__(self, target: str, timeout: float = 5.0):
        self.target = str(target).rstrip("/")
        self.timeout = timeout
        self.is_http = self.target.startswith(
            ("http://", "https://")
        )
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(_COUNTERS, 0)

    @property
    def label(self) -> str:
        return f"peer:{self.target}"

    def _count(self, *names: str) -> None:
        with self._lock:
            for name in names:
                self.counts[name] += 1

    # -- the Tier face --------------------------------------------------

    def fetch(self, kind: str, key):
        """``(artifact, payload blob)`` or ``None`` — the blob is the
        peer's exact payload bytes, already validated by decode, which
        the :class:`~repro.storage.tiered.TieredStore` republishes into
        the local disk tier verbatim (promotion without re-pickling).
        A key that has no route is never looked up."""
        route = artifact_route(kind, key)
        if route is None:
            blob = None
        elif self.is_http:
            blob = self._http_get(kind, route)
        else:
            blob = self._read_file(kind, key)
        if blob is None:
            self._count(counter_name(kind, "misses"))
            return None
        try:
            artifact = decode(kind, blob)
        except Exception:
            # corrupt/truncated/foreign payload: a counted clean miss
            self._count(
                counter_name(kind, "errors"), counter_name(kind, "misses")
            )
            return None
        self._count(counter_name(kind, "hits"))
        return artifact, blob

    def store(self, kind, key, artifact, blob=None, promoted=False):
        raise TypeError("PeerTier is read-only")

    def gc(self, pass_name=None, max_age_seconds=None, max_bytes=None):
        """Peers are read-only; there is nothing local to reclaim."""
        return {"removed": 0, "reclaimed_bytes": 0}

    # -- transport ------------------------------------------------------

    def _read_file(self, kind: str, key) -> Optional[bytes]:
        path = (
            Path(self.target)
            / f"v{FORMAT_VERSION}"
            / artifact_path(kind, key)
        )
        try:
            return path.read_bytes()
        except OSError:
            return None

    def _http_get(self, kind: str, route: str) -> Optional[bytes]:
        """The body at *route*, or ``None``. Transport failures count
        under the *kind*'s ``errors`` counter (``unit_errors`` for a
        unit)."""
        try:
            with urllib.request.urlopen(
                self.target + route, timeout=self.timeout
            ) as response:
                if response.status != 200:
                    return None
                return response.read()
        except urllib.error.HTTPError as error:
            if error.code != 404:
                # 404 is an ordinary miss; anything else is peer damage
                self._count(counter_name(kind, "errors"))
            return None
        except (urllib.error.URLError, OSError, ValueError):
            # unreachable/timeout/refused: the peer is an optimization,
            # not a dependency — fall through to a local compile
            self._count(counter_name(kind, "errors"))
            return None

    # -- maintenance ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "target": self.target,
                "transport": "http" if self.is_http else "path",
                **self.counts,
            }


_PEERS: dict[str, PeerTier] = {}
_PEERS_LOCK = threading.Lock()


def peer_tier_for(target: str) -> PeerTier:
    """Process-wide peer registry, one instance per target, so every
    compile naming the same peer shares its hit/error counters (and the
    service ``/stats`` endpoint can report them). Directory targets
    dedupe by resolved path, like the disk registry."""
    import os

    target = str(target)
    if target.startswith(("http://", "https://")):
        # normalize like PeerTier.__init__ does, so "http://h:1/" and
        # "http://h:1" share one instance (and one set of counters)
        target = target.rstrip("/")
    else:
        target = os.path.abspath(target)
    with _PEERS_LOCK:
        peer = _PEERS.get(target)
        if peer is None:
            peer = PeerTier(target)
            _PEERS[target] = peer
        return peer
