"""Execution requests, artifact grouping, and forest sharding.

The service accepts many ``(program, forest)`` requests. Before
anything executes, requests are **grouped by compiled artifact** — the
same ``(source hash, options hash)`` key the compile cache uses — so an
artifact is resolved once per wave however many requests name it. Each
group's forests are then **sharded**: split into contiguous runs of
trees sized to keep worker-pool round trips rare while still letting
every worker pull work.

Everything a worker receives must survive ``pickle`` (the process
backend ships shards to forked/spawned workers): tree *specs* rather
than built trees, and workloads whose ``build_tree``/``collect``
callables and pure impls are module-level rather than closures.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.pipeline import CompileOptions
from repro.runtime.values import ObjectValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.workload import Workload

_request_ids = itertools.count(1)


def default_collect(program, heap, root) -> dict:
    """Per-tree summary when a request has no collector: enough to
    cross-check batched against sequential execution. The digest is the
    SHA-256 of ``repr(root.snapshot(program))``, so results stay cheap
    to ship between processes; :func:`_snapshot_text` writes that text
    without building the snapshot."""
    return {
        "snapshot_sha": hashlib.sha256(
            _snapshot_text(program, root).encode()
        ).hexdigest(),
        "tree_bytes": heap.footprint_bytes,
    }


def _snapshot_text(program, root) -> str:
    """Exactly ``repr(root.snapshot(program))``, written by one
    iterative preorder walk: no snapshot dicts, and no recursion, so a
    chain of any depth digests. The stack holds finished text and nodes
    still to write; a node's text up to each non-``None`` child goes on
    ahead of that child. Each type's opening and field prefixes
    (``", 'Width': "``) are formatted once per call."""
    shapes: dict[str, tuple] = {}
    out: list[str] = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
            continue
        shape = shapes.get(node.type_name)
        if shape is None:
            shape = shapes[node.type_name] = (
                f"{{'__type__': {node.type_name!r}",
                tuple(
                    (f", {name!r}: ", name, field.is_child)
                    for name, field in program.fields_of(
                        node.type_name
                    ).items()
                ),
            )
        text, fields = shape
        values = node.fields
        parts = []
        for prefix, name, is_child in fields:
            value = values[name]
            if is_child and value is not None:
                parts.append(text + prefix)
                parts.append(value)
                text = ""
            elif isinstance(value, ObjectValue):
                # the snapshot holds (class_name, members) for an object
                text = f"{text}{prefix}{(value.class_name, value.members)!r}"
            else:
                text = f"{text}{prefix}{value!r}"
        if parts:
            parts.append(text + "}")
            parts.reverse()
            stack.extend(parts)
        else:
            out.append(text + "}")
    return "".join(out)


@dataclass
class ExecRequest:
    """One unit of service work: run a workload's program over a forest.

    * ``workload`` — the :class:`~repro.api.workload.Workload` bundle:
      program source, tree builder, globals and pure impls.
    * ``trees`` — picklable tree specs; ``workload.build_tree(program,
      heap, spec)`` realizes each one in a worker.
    * ``fused`` — run the fused module (the product under test) or the
      unfused baseline.
    * ``collect`` — optional ``(program, heap, root) -> picklable``
      per-tree summary; defaults to :func:`default_collect`.
    * ``mode`` — ``"compiled"`` (the pipeline artifact) or
      ``"interpret"`` (the interpreter: zero compile latency, original
      semantics; ``fused`` is ignored). Interpret requests group under
      their own key so they never wait on a compile.

    ``workload.request(...)`` is the usual way to make one.
    """

    workload: "Workload"
    trees: Sequence = ()
    options: CompileOptions = field(default_factory=CompileOptions)
    fused: bool = True
    collect: Optional[Callable] = None
    mode: str = "compiled"
    request_id: int = field(default_factory=lambda: next(_request_ids))
    # the submitting span's (trace_id, span_id) — picklable, so the
    # executor can reparent worker-side spans under the request's trace
    # even across the process pool. None = no active trace at submit.
    trace_context: Optional[tuple] = None

    def __post_init__(self):
        if self.mode not in ("compiled", "interpret"):
            raise ValueError(
                f"unknown execution mode {self.mode!r}; "
                "pick 'compiled' or 'interpret'"
            )

    def compile_key(self) -> tuple[str, str]:
        """The cache key this request's artifact lives under. Interpret
        requests get a distinct key (prefixed options hash) so a wave
        never groups them with compiled requests for the same source —
        their whole point is not waiting on that compile."""
        source_hash = self.workload.source_hash()
        options_hash = self.options.options_hash()
        if self.mode == "interpret":
            return (source_hash, f"interp:{options_hash}")
        return (source_hash, options_hash)


@dataclass
class TreeResult:
    """One executed tree."""

    request_id: int
    index: int  # position in the request's forest
    summary: object
    seconds: float


@dataclass
class RequestGroup:
    """Requests sharing one compiled artifact."""

    key: tuple[str, str]
    requests: list[ExecRequest] = field(default_factory=list)

    @property
    def tree_count(self) -> int:
        return sum(len(r.trees) for r in self.requests)


@dataclass
class Shard:
    """A contiguous run of one request's trees, the pool's work unit."""

    request: ExecRequest
    indexes: list[int]


def group_requests(requests: Sequence[ExecRequest]) -> list[RequestGroup]:
    """Group by compile key, preserving first-seen order."""
    groups: dict[tuple[str, str], RequestGroup] = {}
    for request in requests:
        key = request.compile_key()
        group = groups.get(key)
        if group is None:
            group = groups[key] = RequestGroup(key=key)
        group.requests.append(request)
    return list(groups.values())


def shard_indexes(count: int, shards: int) -> list[list[int]]:
    """Split ``range(count)`` into at most ``shards`` contiguous,
    near-equal runs (the classic block distribution)."""
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    out: list[list[int]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return [s for s in out if s]


def shard_group(group: RequestGroup, workers: int,
                shards_per_worker: int = 2) -> list[Shard]:
    """Shard every forest in a group. The target shard count scales
    with the worker pool (a couple of shards per worker keeps the pool
    busy without paying a round trip per tree)."""
    shards: list[Shard] = []
    for request in group.requests:
        count = len(request.trees)
        if count == 0:
            continue
        target = max(1, workers * shards_per_worker)
        for indexes in shard_indexes(count, target):
            shards.append(Shard(request=request, indexes=indexes))
    return shards
