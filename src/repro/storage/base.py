"""The tier contract, the artifact address, and the payload codec.

Every storage layer in the system — the in-process byte-budgeted LRU,
the on-disk artifact directory, a read-only peer (a second store root
or a remote ``repro serve``) — implements one small protocol,
:class:`Tier`, whose one read and one write take an artifact *kind*:

* ``"result"`` — whole :class:`~repro.pipeline.options.CompileResult`
  records, keyed by :class:`ResultKey`. The memory tier keys on the
  *full* options hash (every knob participates, so nothing can alias);
  durable tiers key on the *output* options hash (caching knobs must
  not fragment a store shared across processes or hosts — see
  ``CompileOptions.output_hash``).
* ``"unit"`` — one pass's artifact for one compilation unit (a fusion
  plan, an emitted module function — see :mod:`repro.pipeline.units`),
  keyed by ``(pass name, content key)``. The same namespace holds each
  generated module's bytecode, under the ``"bytecode"`` pass: the
  ``marshal`` dump of its compiled code, keyed by the interpreter's
  magic number, optimization level, module name and source (see
  :func:`repro.codegen.python_backend.bytecode_key`).

The two kinds never share a namespace. (The memory tier holds a third,
process-local kind, ``"module"``: exec'd module objects, which never
leave the process.)

Durable tiers share everything below the protocol: where an artifact
lives under a store's ``v1/`` directory (:func:`artifact_path`), which
``/artifact/...`` route serves it (:func:`artifact_route` and its
inverse :func:`route_key`), and the versioned pickled payload it is
stored as (:func:`encode` / :func:`decode`). The disk tier (files), the
peer tier (files or HTTP bodies), and the service's ``/artifact``
endpoint all go through them — which is what makes a store directory, a
mounted copy of it, and a remote server's cache interchangeable warm
sources. Both the format version *and* the repro version are checked on
decode: pickled records mirror in-memory class layouts, so a foreign
entry is a clean miss, never an attribute-drift surprise at run time.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from typing import Optional, Protocol, runtime_checkable

from repro import __version__

#: Version prefix of the on-disk layout (``<root>/v1/...``). Bump it
#: only with a new directory shape; existing v1 stores stay readable.
FORMAT_VERSION = 1

RESULT = "result"
UNIT = "unit"


_HEX = set("0123456789abcdef")


def is_content_hash(text: str) -> bool:
    """A pipeline content key: exactly 64 lowercase hex chars. Both the
    peer client and the ``/artifact`` server validate with this before
    letting a key near a filesystem path or URL."""
    return (
        isinstance(text, str) and len(text) == 64 and set(text) <= _HEX
    )


def is_safe_pass_name(name: str) -> bool:
    """Pass names land in paths/URLs; restrict to the benign alphabet
    actual passes use (``access-analysis``, ``emit``, ...)."""
    return (
        isinstance(name, str)
        and bool(name)
        and all(ch.isalnum() or ch in "-_" for ch in name)
    )


@dataclass(frozen=True)
class ResultKey:
    """Both halves of a compile result's address.

    ``options_hash`` covers every option field (the memory tier's key);
    ``output_hash`` covers only the output-affecting fields (the
    durable tiers' key). A tier picks the half that matches its sharing
    scope.
    """

    source_hash: str
    options_hash: str
    output_hash: str

    @classmethod
    def of(cls, source_hash: str, options) -> "ResultKey":
        return cls(
            source_hash=source_hash,
            options_hash=options.options_hash(),
            output_hash=options.output_hash(),
        )

    @property
    def memory_key(self) -> tuple[str, str]:
        return (self.source_hash, self.options_hash)


@runtime_checkable
class Tier(Protocol):
    """One storage layer of a :class:`~repro.storage.tiered.TieredStore`.

    ``kind`` is the tier's class of storage (``"memory"``, ``"disk"``,
    ``"peer"``); ``label`` identifies the instance in stats
    (``"peer:http://..."``); ``writable`` gates read-through promotion
    and publication.

    ``fetch`` returns ``(artifact, blob)`` or ``None`` on a miss —
    including any corrupt, truncated, or foreign-version artifact,
    which tiers must swallow (counted in their stats) rather than
    raise. ``blob`` is the payload a durable tier read, ``None`` from
    memory. ``store`` adopts one artifact: given ``blob`` a durable
    tier writes those bytes instead of encoding the artifact again, so
    a :class:`TieredStore` promotes a peer hit onto the local disk as
    the peer's exact bytes (no re-pickle on the cross-process warm
    path); ``promoted`` tells the memory tier that a lookup it missed
    was served from below.
    """

    kind: str
    label: str
    writable: bool

    def fetch(self, kind: str, key):  # -> Optional[tuple[object, bytes]]
        ...  # pragma: no cover - protocol

    def store(
        self, kind: str, key, artifact, blob: Optional[bytes] = None,
        promoted: bool = False,
    ):
        ...  # pragma: no cover - protocol

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        ...  # pragma: no cover - protocol

    def stats(self) -> dict:
        ...  # pragma: no cover - protocol


def counter_name(kind: str, name: str) -> str:
    """A tier counter under today's names: results count bare
    (``loads``), units with a ``unit_`` prefix (``unit_loads``)."""
    return name if kind == RESULT else f"{kind}_{name}"


# ===========================================================================
# the address (the durable tiers' layout and routes)
# ===========================================================================


def _pair(key) -> tuple[str, str]:
    """A durable address's two parts: a result's ``(source hash, output
    hash)`` — a :class:`ResultKey` contributes its output half — or a
    unit's ``(pass name, content key)``."""
    if isinstance(key, ResultKey):
        return key.source_hash, key.output_hash
    return key


def _addressable(kind: str, first: str, second: str) -> bool:
    if kind == RESULT:
        return is_content_hash(first) and is_content_hash(second)
    if kind == UNIT:
        return is_safe_pass_name(first) and is_content_hash(second)
    return False


def artifact_path(kind: str, key) -> str:
    """Where one artifact lives under a store's ``v1/`` directory::

        result  <source_hash[:2]>/<source_hash>-<output_hash>.pkl
        unit    units/<pass>/<unit_key[:2]>/<unit_key>.pkl

    Glob wildcards pass through (``("*", "*")`` is every artifact of a
    kind), which is how the disk tier's eviction and GC sweeps find
    them."""
    first, second = _pair(key)
    if kind == RESULT:
        return f"{first[:2]}/{first}-{second}.pkl"
    if kind == UNIT:
        return f"units/{first}/{second[:2]}/{second}.pkl"
    raise ValueError(f"{kind!r} artifacts have no durable address")


def artifact_route(kind: str, key) -> Optional[str]:
    """The ``/artifact/<kind>/...`` route a server answers for one
    artifact with its payload bytes, or ``None`` when the key is not one
    the pipeline makes (anything else must never reach a URL or a
    filesystem path)."""
    first, second = _pair(key)
    if not _addressable(kind, first, second):
        return None
    return f"/artifact/{kind}/{first}/{second}"


def route_key(route: str) -> Optional[tuple[str, tuple[str, str]]]:
    """The inverse of :func:`artifact_route`: ``(kind, (first,
    second))``, or ``None`` when the route names no valid artifact.
    Raises ``ValueError`` when *route* is not shaped like an artifact
    route at all."""
    parts = route.split("/")
    if len(parts) != 5 or parts[:2] != ["", "artifact"]:
        raise ValueError("bad artifact route")
    _, _, kind, first, second = parts
    if not _addressable(kind, first, second):
        return None
    return kind, (first, second)


# ===========================================================================
# payloads (the durable tiers' exchange format)
# ===========================================================================


def encode(kind: str, artifact) -> bytes:
    """One artifact as a versioned payload blob.

    A stored result is a plain cold result: ``cache_hit``/
    ``cold_timings`` bookkeeping is the *loading* process's business.
    May raise — callers treat serialization failure as a skipped write.
    """
    if kind == RESULT:
        artifact = replace(artifact, cache_hit=False, cold_timings=None)
    payload = {
        "format": FORMAT_VERSION,
        "repro": __version__,
        kind: artifact,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode(kind: str, blob: bytes):
    """The artifact inside a payload blob; raises on corrupt,
    truncated, or foreign-version payloads, and on a payload of another
    kind (callers turn that into a counted miss)."""
    payload = pickle.loads(blob)
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"format {payload.get('format')!r} != {FORMAT_VERSION}"
        )
    if payload.get("repro") != __version__:
        raise ValueError(
            f"repro {payload.get('repro')!r} != {__version__}"
        )
    return payload[kind]
