"""The tier contract, the artifact address, and the payload codec.

Every storage layer in the system — the in-process byte-budgeted LRU,
the on-disk artifact directory, a read-only peer (a second store root
or a remote ``repro serve``) — implements one small protocol,
:class:`Tier`, whose one read and one write take an artifact *kind*:

* ``"result"`` — whole :class:`~repro.pipeline.options.CompileResult`
  records, keyed by :class:`ResultKey`: the source's content hash and
  ``CompileOptions.options_hash()``. Options hold only what shapes the
  output, so every tier, in memory or shared across processes and
  hosts, keys a result the same way.
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
lives under a store's ``v2/`` directory, which ``/artifact/...`` route
serves it (:func:`artifact_route` and its inverse :func:`route_key`),
and the versioned pickled payload it is stored as (:func:`encode` /
:func:`decode`). A result is one file (:func:`artifact_path`); units
live in *packs*, one file per pass per publication
(:func:`pack_path`): a header maps each unit key to the offset and
length of its payload, and the payloads follow (:func:`encode_pack` /
:func:`read_pack_header`). The disk tier (files), the peer tier (files
or HTTP bodies), and the service's ``/artifact`` endpoint all go
through them — which is what makes a store directory, a mounted copy of
it, and a remote server's cache interchangeable warm sources. Both the
format version *and* the repro version are checked on decode: pickled
records mirror in-memory class layouts, so a foreign entry is a clean
miss, never an attribute-drift surprise at run time.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from dataclasses import replace
from typing import NamedTuple, Optional, Protocol, runtime_checkable

from repro import __version__

#: Version prefix of the on-disk layout (``<root>/v2/...``), also
#: stamped into every payload and pack header. Bump it with a new
#: directory shape: a store of another version is a clean miss, and
#: ``DiskTier.compact`` reclaims its tree.
FORMAT_VERSION = 2

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


class ResultKey(NamedTuple):
    """A compile result's address in every tier: ``(source hash,
    options hash)``."""

    source_hash: str
    options_hash: str

    @classmethod
    def of(cls, source_hash: str, options) -> "ResultKey":
        return cls(source_hash, options.options_hash())


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
    was served from below. A writable durable tier also takes
    ``store_pack(pass_name, units)``: one pass's ``(key, artifact, blob
    or None)`` units written as one pack.
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


def _addressable(kind: str, first: str, second: str) -> bool:
    if kind == RESULT:
        return is_content_hash(first) and is_content_hash(second)
    if kind == UNIT:
        return is_safe_pass_name(first) and is_content_hash(second)
    return False


def artifact_path(kind: str, key) -> str:
    """Where one result lives under a store's ``v2/`` directory::

        <source_hash[:2]>/<source_hash>-<options_hash>.pkl

    Glob wildcards pass through (``("*", "*")`` is every result), which
    is how the disk tier's eviction and GC sweeps find them. Units have
    no file of their own: see :func:`pack_path`."""
    if kind != RESULT:
        raise ValueError(f"{kind!r} artifacts have no file of their own")
    first, second = key
    return f"{first[:2]}/{first}-{second}.pkl"


def pack_dir(pass_name: str) -> str:
    """The directory, under a store's ``v2/``, of one pass's packs."""
    return f"units/{pass_name}"


def pack_path(pass_name: str, keys) -> str:
    """Where the pack of one pass's units *keys* lives::

        units/<pass>/<sha256 of the pass and the sorted keys>.pack

    The name depends on the keys alone, so two writers of the same
    units publish the same file."""
    digest = hashlib.sha256(
        "\x00".join((pass_name, *sorted(keys))).encode()
    ).hexdigest()
    return f"{pack_dir(pass_name)}/{digest}.pack"


def artifact_route(kind: str, key) -> Optional[str]:
    """The ``/artifact/<kind>/...`` route a server answers for one
    artifact with its payload bytes, or ``None`` when the key is not one
    the pipeline makes (anything else must never reach a URL or a
    filesystem path)."""
    first, second = key
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


# ===========================================================================
# packs (many units' payloads in one file)
# ===========================================================================

# magic, format version, unit count; then per unit its key's 32 digest
# bytes, its payload's offset from the start of the file, and its length
_PACK_HEAD = struct.Struct("<4sHI")
_PACK_SLOT = struct.Struct("<32sII")
_PACK_MAGIC = b"RPAK"


def encode_pack(blobs: dict[str, bytes]) -> tuple[bytes, dict]:
    """One pack of unit payloads (``{unit key: encode("unit", ...)}``):
    its bytes and ``{unit key: (offset, length)}``. The payloads are
    stored verbatim, in key order, after the header."""
    keys = sorted(blobs)
    offset = _PACK_HEAD.size + _PACK_SLOT.size * len(keys)
    slots = {}
    header = [_PACK_HEAD.pack(_PACK_MAGIC, FORMAT_VERSION, len(keys))]
    for key in keys:
        length = len(blobs[key])
        slots[key] = (offset, length)
        header.append(_PACK_SLOT.pack(bytes.fromhex(key), offset, length))
        offset += length
    return b"".join([*header, *(blobs[key] for key in keys)]), slots


def read_pack_header(handle) -> dict[str, tuple[int, int]]:
    """``{unit key: (offset, length)}`` from an open pack file. Raises
    ``ValueError`` on a header that is not a current-format pack's or
    that names bytes past the end of the file."""
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(_PACK_HEAD.size)
    if len(head) != _PACK_HEAD.size:
        raise ValueError("truncated pack header")
    magic, version, count = _PACK_HEAD.unpack(head)
    if magic != _PACK_MAGIC or version != FORMAT_VERSION:
        raise ValueError("not a current-format pack")
    end = _PACK_HEAD.size + _PACK_SLOT.size * count
    table = handle.read(end - _PACK_HEAD.size) if end <= size else b""
    if len(table) != end - _PACK_HEAD.size:
        raise ValueError("truncated pack header")
    slots = {}
    for digest, offset, length in _PACK_SLOT.iter_unpack(table):
        if offset < end or offset + length > size:
            raise ValueError("pack slot past the end of the file")
        slots[digest.hex()] = (offset, length)
    return slots
