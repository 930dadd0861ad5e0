"""Batched execution of traversal requests on a worker pool.

The :class:`BatchExecutor` takes waves of
:class:`~repro.service.batching.ExecRequest` objects and:

1. **groups** them by compiled artifact (one compile per artifact per
   wave, however many requests name it),
2. **resolves** each group's artifact once up front — a memory-cache
   hit, a disk-store load, or a cold compile that immediately spills
   for the next process (interpret-mode groups only parse),
3. **shards** the group's forests into contiguous runs and executes
   them on the pool against that one resolved artifact,
4. **records** per-batch metrics: queue depth at wave formation, batch
   size, and p50/p99 tree/shard latency via
   :class:`repro.runtime.stats.LatencySeries`, keeping the most recent
   :data:`BATCH_HISTORY` records.

Every request runs under the options it carries: the executor adds no
defaults of its own (a :class:`~repro.api.session.Session` fills them
in when it builds the request).

Backends:

* ``"thread"`` (default) — a ``ThreadPoolExecutor``; workers run the
  group's resolved artifact directly.
* ``"process"`` — a ``ProcessPoolExecutor``; shards must pickle (see
  :mod:`repro.service.batching`). Each worker resolves the shard's
  workload itself (shipping exec'd modules would cost more than
  resolving them), through the executor's store as it pickles: the
  same disk roots, peers and ``persist`` flag over the worker's own
  process-wide memory tier. Forked workers inherit the parent's warm
  tier; spawned ones fall back to the store's disk and peers.
* ``"inline"`` — no pool, shards run in the caller's thread: the
  sequential baseline and the zero-dependency debugging mode.

``submit()`` is the async front door: requests queue to a dispatcher
thread that coalesces everything pending (plus a short linger window)
into one wave, so independently submitted requests for the same
artifact still batch.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import obs
from repro.ir.program import Program
from repro.pipeline import GLOBAL_STORE
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Heap
from repro.runtime.stats import LatencySeries
from repro.service.batching import (
    ExecRequest,
    RequestGroup,
    Shard,
    TreeResult,
    default_collect,
    group_requests,
    shard_group,
)
from repro.storage import TieredStore

_BACKENDS = ("thread", "process", "inline")

#: How many batch records (one per artifact group) an executor keeps;
#: ``stats()`` summarizes latency over this window, so its cost stays
#: flat however long the executor has been serving.
BATCH_HISTORY = 256

# the registry face of stats(): totals survive executor turnover and
# are scrapeable (/metrics) without walking BatchMetrics records
_EXEC_REQUESTS = obs.REGISTRY.counter(
    "repro_exec_requests_total",
    "executor requests by final status",
    labels=("status",),
)
_EXEC_TREES = obs.REGISTRY.counter(
    "repro_exec_trees_total", "trees executed to completion"
)
_EXEC_WAVES = obs.REGISTRY.counter(
    "repro_exec_waves_total", "coalesced dispatch waves executed"
)
_TREE_SECONDS = obs.REGISTRY.histogram(
    "repro_exec_tree_seconds", "per-tree traversal wall time"
)
_EXEC_MODES = obs.REGISTRY.counter(
    "repro_exec_mode_total",
    "executor requests by execution mode",
    labels=("mode",),
)


@dataclass
class ShardRun:
    """One shard's outcome: its tree results plus any spans the worker
    recorded (shipped back across the pool boundary so the submitting
    request's trace stays whole — see :func:`repro.obs.collect_spans`)."""

    trees: list[TreeResult]
    spans: Optional[list] = None


@dataclass
class Artifact:
    """What a group's requests run: the program their trees are built
    for, and the module for each execution form — the compiled fused
    and unfused modules, or one :class:`~repro.interp.InterpretedModule`
    (original semantics) for interpret mode."""

    program: Program
    unfused: object
    fused: Optional[object] = None
    cache_hit: bool = False

    def runner(self, request: ExecRequest):
        if request.mode == "compiled" and request.fused:
            return self.fused.run_fused
        return self.unfused.run_entry


def resolve_artifact(
    request: ExecRequest, store: Optional[TieredStore] = GLOBAL_STORE
) -> Artifact:
    """Resolve *request*'s workload once: through the pipeline (a hit
    in one of *store*'s tiers, else a cold compile), or for interpret
    mode by parsing the program and wrapping it in an interpreter
    module."""
    workload, options = request.workload, request.options
    if request.mode == "interpret":
        # looked up at call time, so a caller can wrap it
        from repro.interp import InterpretedModule, resolve_program

        program = resolve_program(
            workload.source,
            name=workload.name,
            pure_impls=dict(workload.pure_impls or {}) or None,
            mode=options.language_mode,
        )
        return Artifact(
            program, InterpretedModule(program, layout=options.layout)
        )
    result = pipeline_compile(workload, options=options, store=store)
    module = (
        result.compiled_fused if request.fused else result.compiled_unfused
    )
    if module is None:
        # emit=False options produce no runnable module — fail up front
        # with a clear message instead of letting every shard die on a
        # NoneType dereference
        raise ValueError(
            "service execution needs emitted modules; "
            "compile with CompileOptions(emit=True)"
        )
    return Artifact(
        result.program,
        result.compiled_unfused,
        result.compiled_fused,
        result.cache_hit,
    )


def _execute_shard(
    request: ExecRequest,
    indexes: list[int],
    trace_ctx: Optional[tuple] = None,
    artifact: Optional[Artifact] = None,
    store: Optional[TieredStore] = GLOBAL_STORE,
) -> ShardRun:
    """Run one shard: build, traverse and collect each tree on the
    group's resolved *artifact*. Module-level so the process backend
    can pickle it; there *artifact* is ``None`` and the worker resolves
    the request's workload itself, through *store*.

    ``trace_ctx`` is the dispatching group span's serialized context;
    when set, the shard records a reparented ``exec.shard`` span (and
    any child spans a worker-side resolve emits) into a local bucket
    that rides home in the :class:`ShardRun` — a fresh worker process
    has its own tracer, so spans must travel with the result."""
    with obs.collect_spans(trace_ctx is not None) as bucket:
        with obs.span_from(
            trace_ctx,
            "exec.shard",
            request_id=request.request_id,
            trees=len(indexes),
            mode=request.mode,
        ):
            if artifact is None:
                artifact = resolve_artifact(request, store)
            program = artifact.program
            run = artifact.runner(request)
            workload = request.workload
            collect = request.collect or default_collect
            out = []
            for index in indexes:
                start = time.perf_counter()
                heap = Heap(program)
                root = workload.build_tree(
                    program, heap, request.trees[index]
                )
                run(heap, root, workload.globals_map)
                out.append(
                    TreeResult(
                        request_id=request.request_id,
                        index=index,
                        summary=collect(program, heap, root),
                        seconds=time.perf_counter() - start,
                    )
                )
    return ShardRun(trees=out, spans=bucket)


@dataclass
class RequestResult:
    """Outcome of one request: per-tree results in forest order, or an
    error message when its group failed to compile/execute."""

    request_id: int
    trees: list[TreeResult] = field(default_factory=list)
    error: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def summaries(self) -> list:
        return [t.summary for t in self.trees]


@dataclass
class BatchMetrics:
    """One artifact group's execution record."""

    key: tuple[str, str]
    requests: int
    trees: int
    shards: int
    queue_depth: int
    compile_seconds: float = 0.0
    compile_cache_hit: bool = False
    wall_seconds: float = 0.0
    tree_latency: LatencySeries = field(default_factory=LatencySeries)
    shard_latency: LatencySeries = field(default_factory=LatencySeries)

    def as_dict(self) -> dict:
        return {
            "key": "/".join(h[:12] for h in self.key),
            "requests": self.requests,
            "trees": self.trees,
            "shards": self.shards,
            "queue_depth": self.queue_depth,
            "compile_seconds": self.compile_seconds,
            "compile_cache_hit": self.compile_cache_hit,
            "wall_seconds": self.wall_seconds,
            "tree_latency": self.tree_latency.summary(),
            "shard_latency": self.shard_latency.summary(),
        }


class BatchExecutor:
    """Groups, shards, and executes traversal requests (see module doc)."""

    def __init__(
        self,
        workers: int = 2,
        backend: str = "thread",
        shards_per_worker: int = 2,
        linger_seconds: float = 0.005,
        store: Optional[TieredStore] = GLOBAL_STORE,
    ):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; pick one of {_BACKENDS}"
            )
        self.workers = max(1, workers)
        self.backend = backend
        # the store groups resolve through (process-pool workers
        # reopen it over their own process-wide memory tier)
        self.store = store
        self.shards_per_worker = shards_per_worker
        self.linger_seconds = linger_seconds
        self._pool = None
        self._pool_lock = threading.Lock()
        # async front door
        self._pending: "queue.Queue[tuple[ExecRequest, Future]]" = (
            queue.Queue()
        )
        self._dispatcher: Optional[threading.Thread] = None
        self._closed = False
        self._closed_lock = threading.Lock()
        # metrics: a window of recent batch records, plus totals
        self._metrics_lock = threading.Lock()
        self.batches: "deque[BatchMetrics]" = deque(maxlen=BATCH_HISTORY)
        self.batch_count = 0
        self.completed_requests = 0
        self.failed_requests = 0
        self.completed_trees = 0
        self.waves = 0

    # -- pool -----------------------------------------------------------

    def _get_pool(self):
        if self.backend == "inline":
            return None
        with self._pool_lock:
            if self._pool is None:
                if self._closed:
                    # backstop: never rebuild a pool after close() (a
                    # rebuilt pool would have no owner to shut it down)
                    raise RuntimeError("executor is closed")
                if self.backend == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-exec",
                    )
                else:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers
                    )
            return self._pool

    # -- synchronous API ------------------------------------------------

    def run(
        self, requests: Sequence[ExecRequest]
    ) -> list[RequestResult]:
        """Execute a wave of requests; results come back in input order."""
        with self._metrics_lock:
            self.waves += 1
        _EXEC_WAVES.inc()
        by_id: dict[int, RequestResult] = {
            r.request_id: RequestResult(request_id=r.request_id)
            for r in requests
        }
        queue_depth = self._pending.qsize()
        with obs.span(
            "exec.wave", requests=len(requests), backend=self.backend
        ):
            for group in group_requests(requests):
                self._run_group(group, by_id, queue_depth)
        ordered = [by_id[r.request_id] for r in requests]
        with self._metrics_lock:
            for result in ordered:
                if result.ok:
                    self.completed_requests += 1
                    self.completed_trees += len(result.trees)
                else:
                    self.failed_requests += 1
        for request, result in zip(requests, ordered):
            status = "ok" if result.ok else "error"
            _EXEC_REQUESTS.labels(status=status).inc()
            _EXEC_MODES.labels(mode=request.mode).inc()
            if result.ok:
                _EXEC_TREES.inc(len(result.trees))
        return ordered

    def _run_group(
        self,
        group: RequestGroup,
        by_id: dict[int, RequestResult],
        queue_depth: int,
    ) -> None:
        shards = shard_group(
            group, self.workers, self.shards_per_worker
        )
        metrics = BatchMetrics(
            key=group.key,
            requests=len(group.requests),
            trees=group.tree_count,
            shards=len(shards),
            queue_depth=queue_depth,
        )
        wave_start = time.perf_counter()
        # the group span reparents under the *submitting* request's
        # trace (its serialized context rode in on the ExecRequest), so
        # a /submit trace shows its dispatch even though execution
        # happens on the dispatcher thread; with no context it falls
        # back to the ambient exec.wave span (or a no-op)
        first = group.requests[0]
        with obs.span_from(
            first.trace_context,
            "exec.group",
            requests=len(group.requests),
            trees=group.tree_count,
            shards=len(shards),
        ) as gspan:
            # resolve the artifact once per group; thread and inline
            # shards run it as is. Interpret-mode groups only parse —
            # their whole point is that nothing waits on the pipeline
            try:
                compile_start = time.perf_counter()
                artifact = resolve_artifact(first, self.store)
                metrics.compile_seconds = (
                    time.perf_counter() - compile_start
                )
                if first.mode == "interpret":
                    gspan.set(mode="interpret")
                else:
                    metrics.compile_cache_hit = artifact.cache_hit
                    gspan.set(compile_cache_hit=artifact.cache_hit)
            except Exception as error:  # compile failure fails the group
                for request in group.requests:
                    by_id[request.request_id].error = (
                        f"compile failed: {error}"
                    )
                metrics.wall_seconds = time.perf_counter() - wave_start
                self._record(metrics)
                return
            pool = self._get_pool()
            if pool is None:
                outcomes = [
                    self._guarded_shard(
                        shard,
                        shard.request.trace_context or gspan.context,
                        artifact,
                    )
                    for shard in shards
                ]
            else:
                if self.backend == "thread":
                    resolved = {"artifact": artifact}
                else:
                    # process workers resolve the workload themselves,
                    # through this executor's store as it pickles
                    resolved = {"store": self.store}
                futures = [
                    pool.submit(
                        _execute_shard,
                        shard.request,
                        shard.indexes,
                        # multi-request groups: each shard reparents to
                        # its own request's trace when it has one
                        shard.request.trace_context or gspan.context,
                        **resolved,
                    )
                    for shard in shards
                ]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append(future.result())
                    except Exception as error:
                        outcomes.append(error)
            for shard, outcome in zip(shards, outcomes):
                result = by_id[shard.request.request_id]
                if isinstance(outcome, Exception):
                    result.error = f"shard failed: {outcome}"
                    continue
                obs.ingest(outcome.spans)
                shard_seconds = sum(t.seconds for t in outcome.trees)
                metrics.shard_latency.record(shard_seconds)
                for tree in outcome.trees:
                    metrics.tree_latency.record(tree.seconds)
                    _TREE_SECONDS.observe(tree.seconds)
                    result.trees.append(tree)
        for request in group.requests:
            result = by_id[request.request_id]
            result.trees.sort(key=lambda t: t.index)
            result.wall_seconds = time.perf_counter() - wave_start
        metrics.wall_seconds = time.perf_counter() - wave_start
        self._record(metrics)

    def _record(self, metrics: BatchMetrics) -> None:
        with self._metrics_lock:
            self.batches.append(metrics)
            self.batch_count += 1

    def _guarded_shard(
        self, shard: Shard, trace_ctx: Optional[tuple], artifact: Artifact
    ):
        try:
            return _execute_shard(
                shard.request, shard.indexes, trace_ctx, artifact
            )
        except Exception as error:
            return error

    # -- async API ------------------------------------------------------

    def submit(self, request: ExecRequest) -> "Future[RequestResult]":
        """Queue one request; the dispatcher coalesces everything
        pending (plus a short linger window) into batched waves."""
        if request.trace_context is None:
            # capture the submitter's active span (if any) so the
            # dispatcher thread — a different context — can reparent
            # the group/shard spans under this request's trace
            request.trace_context = obs.current_context()
        ticket: "Future[RequestResult]" = Future()
        # the closed check, the enqueue, and close()'s drain are
        # mutually exclusive — a submit racing close() either fails
        # fast here or its ticket is visible to the drain
        with self._closed_lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            self._pending.put((request, ticket))
        self._ensure_dispatcher()
        return ticket

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-dispatch",
                daemon=True,
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while not self._closed:
            try:
                first = self._pending.get(timeout=0.2)
            except queue.Empty:
                continue
            if self.linger_seconds:
                time.sleep(self.linger_seconds)
            wave = [first]
            while True:
                try:
                    wave.append(self._pending.get_nowait())
                except queue.Empty:
                    break
            requests = [request for request, _ in wave]
            try:
                results = self.run(requests)
            except Exception as error:  # defensive: never lose tickets
                for _, ticket in wave:
                    if not ticket.done():
                        ticket.set_exception(error)
                continue
            for (_, ticket), result in zip(wave, results):
                ticket.set_result(result)

    # -- metrics --------------------------------------------------------

    def stats(self) -> dict:
        """The service dashboard record. ``batches`` and the request and
        tree counts are totals since the executor started;
        ``tree_latency`` and ``shard_latency`` summarize only the last
        :data:`BATCH_HISTORY` batch records."""
        with self._metrics_lock:
            tree_latency = LatencySeries()
            shard_latency = LatencySeries()
            for batch in self.batches:
                tree_latency.merge(batch.tree_latency)
                shard_latency.merge(batch.shard_latency)
            return {
                "backend": self.backend,
                "workers": self.workers,
                "waves": self.waves,
                "batches": self.batch_count,
                "completed_requests": self.completed_requests,
                "failed_requests": self.failed_requests,
                "completed_trees": self.completed_trees,
                "queue_depth": self._pending.qsize(),
                "tree_latency": tree_latency.summary(),
                "shard_latency": shard_latency.summary(),
                "recent_batches": [
                    b.as_dict() for b in list(self.batches)[-5:]
                ],
            }

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._closed_lock:
            self._closed = True
        # let an in-flight wave finish (its tickets resolve normally)
        # so shutting the pool below cannot strand it mid-run
        dispatcher = self._dispatcher
        if (
            dispatcher is not None
            and dispatcher.is_alive()
            and dispatcher is not threading.current_thread()
        ):
            dispatcher.join(timeout=60)
        # fail any tickets still queued: a caller blocked on
        # ticket.result() must see the shutdown, not hang forever
        while True:
            try:
                _, ticket = self._pending.get_nowait()
            except queue.Empty:
                break
            if not ticket.done():
                ticket.set_exception(
                    RuntimeError("executor closed before execution")
                )
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
