"""Service front end: workload registry, facade, and HTTP server.

:class:`TraversalService` is the programmatic face of the subsystem —
submit/await/stats over a :class:`~repro.service.executor.BatchExecutor`
with an optional persistent artifact store. The workload registry maps
names (``"render"``) to request builders so callers (CLI, HTTP, tests)
can say *what* to run without holding tree-builder callables.

The HTTP layer is deliberately stdlib-only (``http.server``): the
reproduction must not grow dependencies. Endpoints::

    GET  /healthz            -> {"ok": true}
    GET  /stats              -> executor + tier-labelled storage +
                                legacy cache/store statistics, plus
                                version / uptime_seconds /
                                requests_total service identity
    GET  /metrics            -> the obs registry in Prometheus text
                                exposition format (text/plain)
    GET  /trace/<trace_id>   -> every buffered span of one trace as
                                JSON (404 when the id is unknown);
                                /submit returns the trace_id when the
                                request was traced
    POST /submit             -> {"request_id": N}; JSON body names a
                                workload, e.g. {"workload": "render",
                                "trees": 64, "pages": 4} or any
                                registered name with its size knob
                                ({"workload": "kdtree", "depth": 5});
                                an optional "layout" field picks the
                                tree layout ("object" | "pooled") —
                                per-layout submit counts appear under
                                "layouts" in /stats; an optional
                                "mode" field picks the execution tier
                                ("compiled" | "interpret" — the
                                reference interpreter, zero compile
                                latency), counted per mode in /stats
                                ("modes", interpreted/
                                compiled_requests_total)
    GET  /result/<id>        -> completion state / summaries of one id
    GET  /artifact/result/<source>/<output>
    GET  /artifact/unit/<pass>/<key>
                             -> raw stored payload bytes: this server's
                                store served as a PeerTier, so another
                                host's compile can start warm here
    POST /recompile          -> {"workload": name}: rebuild through the
                                tiered store (whole-result cache
                                bypassed) and return the unit-reuse
                                report as JSON
    POST /gc                 -> {"pass": p?, "max_age_seconds": s?,
                                "max_bytes": b?}: policy GC across the
                                writable tiers
    POST /compact            -> drop unservable store entries
    POST /shutdown           -> stop serving (used by the smoke test)

Handlers never execute traversals inline — submits go through the
executor's async queue, so the stats endpoint stays responsive while a
batch runs (the point of a *service*). ``/recompile`` is the one
deliberate exception: it exists to *measure* a recompile, so it runs
the pipeline in the handler thread and returns the report.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro import __version__, obs
from repro.pipeline import GLOBAL_CACHE, CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.service.batching import ExecRequest
from repro.service.executor import BatchExecutor, RequestResult
from repro.storage import (
    TieredStore,
    disk_tier_for,
    is_content_hash,
    is_safe_pass_name,
    peer_tier_for,
)


# ===========================================================================
# workload registry
# ===========================================================================


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, service-runnable workload.

    ``make_workload`` resolves the underlying
    :class:`~repro.api.workload.Workload` bundle lazily (workload
    packages parse/lower their programs on first use — the registry
    must import cheaply). ``size_kwarg`` names the bundle's size knob
    (``pages``, ``depth``, ``particles``) so generic callers — the CLI's
    ``--size``, the HTTP ``/submit`` body — can scale any workload
    without knowing its vocabulary.
    """

    name: str
    description: str
    make_workload: Callable[[], "object"]
    size_kwarg: str

    def workload(self):
        return self.make_workload()

    def make_request(
        self,
        trees: int = 8,
        fused: bool = True,
        options: Optional[CompileOptions] = None,
        size: Optional[int] = None,
        layout: Optional[str] = None,
        mode: Optional[str] = None,
        **spec_kwargs,
    ) -> ExecRequest:
        if size is not None:
            spec_kwargs.setdefault(self.size_kwarg, size)
        effective = options if options is not None else CompileOptions()
        if layout is not None:
            # per-request tree layout ('object' | 'pooled') — the
            # /submit body's "layout" field lands here
            effective = replace(effective, layout=layout)
        return self.workload().request(
            trees,
            options=effective,
            fused=fused,
            # per-request execution tier ('compiled' | 'interpret') —
            # the /submit body's "mode" field lands here
            mode=mode if mode is not None else "compiled",
            **spec_kwargs,
        )


# memoized: a sequential wave builds one request per tree, and the
# bundle (program lowering + content hash) must not be re-derived per
# request
@functools.lru_cache(maxsize=None)
def _render_workload():
    from repro.workloads.render import render_workload

    return render_workload()


@functools.lru_cache(maxsize=None)
def _kdtree_workload():
    from repro.workloads.kdtree import kdtree_workload

    return kdtree_workload()


@functools.lru_cache(maxsize=None)
def _fmm_workload():
    from repro.workloads.fmm import fmm_workload

    return fmm_workload()


@functools.lru_cache(maxsize=None)
def _astlang_workload():
    from repro.workloads.astlang import astlang_workload

    return astlang_workload()


WORKLOADS: dict[str, WorkloadSpec] = {
    # extensible: registering a workload takes one Workload bundle
    # whose specs/build_tree/impls survive pickle (see
    # repro.service.batching) plus the name of its size knob
    "render": WorkloadSpec(
        name="render",
        description="render-tree layout (paper §5.1): replicated pages",
        make_workload=_render_workload,
        size_kwarg="pages",
    ),
    "astlang": WorkloadSpec(
        name="astlang",
        description="AST optimization passes (paper §5.2): desugar, "
        "propagate, fold, prune",
        make_workload=_astlang_workload,
        size_kwarg="functions",
    ),
    "kdtree": WorkloadSpec(
        name="kdtree",
        description="piecewise functions on kd-trees (paper §5.3): "
        "equation schedules over balanced trees",
        make_workload=_kdtree_workload,
        size_kwarg="depth",
    ),
    "fmm": WorkloadSpec(
        name="fmm",
        description="fast multipole method (paper §5.4): 1D monopole "
        "kernel over spatial trees",
        make_workload=_fmm_workload,
        size_kwarg="particles",
    ),
}


# ===========================================================================
# the facade
# ===========================================================================


class TraversalService:
    """Submit/await/stats over a batch executor + tiered storage."""

    def __init__(
        self,
        workers: int = 2,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        max_tickets: int = 1024,
        peers: tuple = (),
        layout: Optional[str] = None,
    ):
        self.cache_dir = cache_dir
        self.peers = tuple(peers)
        self.layout = layout
        self.store = disk_tier_for(cache_dir) if cache_dir else None
        # the service's storage stack: the process memory tier, its
        # store (when persistent), and any read-only peers — what /gc
        # sweeps and the tier-labelled half of /stats reports
        self.tiers = TieredStore(
            [GLOBAL_CACHE, self.store]
            + [peer_tier_for(p) for p in self.peers]
        )
        self.executor = BatchExecutor(
            workers=workers,
            backend=backend,
            cache_dir=cache_dir,
            peers=self.peers,
            layout=layout,
        )
        self.max_tickets = max_tickets
        self._tickets: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.Lock()
        # per-layout submission counters (reported under /stats
        # "layouts"); counted at submit time from the request the
        # executor will actually run, defaults applied
        self._layout_counts: dict[str, int] = {}
        # per-mode counters (compiled vs interpreted), surfaced in
        # /stats as modes + interpreted/compiled_requests_total
        self._mode_counts: dict[str, int] = {}
        # service identity for /stats: when it started, how many
        # submits it has ever accepted (monotonic — unlike the
        # executor's completed/failed split, this counts acceptance)
        self.started = time.time()
        self._requests_total = 0
        # request id -> trace id for traced submits, bounded like the
        # ticket table so /trace stays answerable for recent work
        self._trace_ids: "OrderedDict[int, str]" = OrderedDict()
        # expose the legacy stats() dicts through the metrics registry
        # as scrape-time views: /metrics carries the same numbers
        # /stats always has, without double bookkeeping
        obs.REGISTRY.register_view(
            "repro_cache", GLOBAL_CACHE.stats
        )
        if self.store is not None:
            obs.REGISTRY.register_view("repro_store", self.store.stats)
        obs.REGISTRY.register_view(
            "repro_service", self._identity_view
        )

    def _identity_view(self) -> dict:
        with self._lock:
            total = self._requests_total
        return {
            "uptime_seconds": time.time() - self.started,
            "requests_total": total,
        }

    # -- submission -----------------------------------------------------

    def submit(self, request: ExecRequest) -> int:
        effective_layout = request.options.layout
        if self.layout is not None and effective_layout == "object":
            effective_layout = self.layout
        # the trace root for this request (when tracing is on): the
        # executor's group/shard spans reparent under it via the
        # context stamped onto the request, even though execution
        # happens later, on other threads/processes
        with obs.span(
            "service.submit",
            request_id=request.request_id,
            trees=len(request.trees),
            layout=effective_layout,
            mode=request.mode,
        ) as span:
            if request.trace_context is None and span.recorded:
                request.trace_context = span.context
            ticket = self.executor.submit(request)
        with self._lock:
            self._requests_total += 1
            if span.recorded:
                self._trace_ids[request.request_id] = span.trace_id
                while len(self._trace_ids) > self.max_tickets:
                    self._trace_ids.popitem(last=False)
            self._layout_counts[effective_layout] = (
                self._layout_counts.get(effective_layout, 0) + 1
            )
            self._mode_counts[request.mode] = (
                self._mode_counts.get(request.mode, 0) + 1
            )
            self._tickets[request.request_id] = ticket
            # bounded retention: results are held for polling, not
            # forever — a long-lived server must not accumulate every
            # RequestResult it ever produced. Completed tickets age out
            # first; only under max_tickets *in-flight* requests would
            # an unfinished one be dropped.
            while len(self._tickets) > self.max_tickets:
                victim = next(
                    (
                        rid
                        for rid, t in self._tickets.items()
                        if t.done()
                    ),
                    next(iter(self._tickets)),
                )
                del self._tickets[victim]
        return request.request_id

    def submit_workload(self, name: str, **kwargs) -> int:
        spec = WORKLOADS.get(name)
        if spec is None:
            raise KeyError(
                f"unknown workload {name!r}; have {sorted(WORKLOADS)}"
            )
        return self.submit(spec.make_request(**kwargs))

    # -- results --------------------------------------------------------

    def result(
        self, request_id: int, timeout: Optional[float] = None
    ) -> RequestResult:
        with self._lock:
            ticket = self._tickets.get(request_id)
        if ticket is None:
            raise KeyError(f"unknown request id {request_id}")
        return ticket.result(timeout)

    def poll(self, request_id: int) -> dict:
        """Non-blocking completion state of one request."""
        with self._lock:
            ticket = self._tickets.get(request_id)
        if ticket is None:
            return {"request_id": request_id, "state": "unknown"}
        trace_id = self.trace_id_for(request_id)
        if not ticket.done():
            return {
                "request_id": request_id,
                "state": "pending",
                "trace_id": trace_id,
            }
        try:
            result = ticket.result(0)
        except Exception as error:
            return {
                "request_id": request_id,
                "state": "failed",
                "error": str(error),
                "trace_id": trace_id,
            }
        return {
            "request_id": request_id,
            "state": "done" if result.ok else "failed",
            "error": result.error,
            "trees": len(result.trees),
            "wall_seconds": result.wall_seconds,
            "summaries": [t.summary for t in result.trees[:3]],
            "trace_id": trace_id,
        }

    # -- observability --------------------------------------------------

    def trace_id_for(self, request_id: int) -> Optional[str]:
        """The trace id minted for one submit, or ``None`` when the
        request wasn't traced (tracing off, root not sampled, or the
        id has aged out of the bounded table)."""
        with self._lock:
            return self._trace_ids.get(request_id)

    def trace_spans(self, trace_id: str) -> list[dict]:
        """Every buffered span of one trace (oldest first) — the
        ``GET /trace/<id>`` body."""
        return obs.get_tracer().spans(trace_id)

    def metrics_text(self) -> str:
        """The metrics registry in Prometheus text exposition format —
        the ``GET /metrics`` body."""
        return obs.REGISTRY.render_prometheus()

    # -- stats ----------------------------------------------------------

    def stats(self) -> dict:
        # "store" is always present so dashboards can key on it: the
        # eviction/compaction counters ride alongside the executor
        # metrics when a store is attached, and read as null otherwise.
        # "storage" is the tier-labelled view of the same stack
        # (memory / disk / peers, in lookup order). The store record is
        # lifted out of the tier view rather than recomputed —
        # DiskTier.stats() globs the whole store directory, and one
        # walk per poll is enough.
        storage = self.tiers.stats()
        store = None
        if self.store is not None:
            store = next(
                (
                    {
                        key: value
                        for key, value in record.items()
                        if key not in ("label", "kind")
                    }
                    for record in storage
                    if record.get("label") == self.store.label
                ),
                None,
            ) or self.store.stats()
        with self._lock:
            layouts = dict(sorted(self._layout_counts.items()))
            modes = dict(sorted(self._mode_counts.items()))
            requests_total = self._requests_total
        return {
            "version": __version__,
            "uptime_seconds": time.time() - self.started,
            "requests_total": requests_total,
            "executor": self.executor.stats(),
            "compile_cache": GLOBAL_CACHE.stats(),
            "workloads": sorted(WORKLOADS),
            "layouts": layouts,
            "modes": modes,
            "interpreted_requests_total": modes.get("interpret", 0),
            "compiled_requests_total": modes.get("compiled", 0),
            "store": store,
            "storage": storage,
        }

    def compact_store(self) -> dict:
        """Run one artifact-store compaction (no-op without a store)."""
        if self.store is None:
            return {"removed": 0, "reclaimed_bytes": 0}
        return self.store.compact()

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """One GC policy across the service's writable tiers (the
        memory cache's unit layer + the store); see
        :meth:`repro.storage.TieredStore.gc`."""
        return self.tiers.gc(
            pass_name=pass_name,
            max_age_seconds=max_age_seconds,
            max_bytes=max_bytes,
        )

    # -- storage endpoints ----------------------------------------------

    def artifact_bytes(
        self, kind: str, first: str, second: str
    ) -> Optional[bytes]:
        """The raw stored payload for one artifact, or ``None`` —
        the ``GET /artifact/...`` body that lets another host mount
        this service as a :class:`~repro.storage.PeerTier`. Inputs are
        validated before touching the filesystem; the requesting peer
        re-validates the payload itself on decode."""
        if self.store is None:
            return None
        if (
            kind == "result"
            and is_content_hash(first)
            and is_content_hash(second)
        ):
            path = self.store.path_for(first, second)
        elif (
            kind == "unit"
            and is_safe_pass_name(first)
            and is_content_hash(second)
        ):
            path = self.store.unit_path_for(first, second)
        else:
            return None
        try:
            return path.read_bytes()
        except OSError:
            return None

    def recompile_workload(
        self,
        name: str,
        options: Optional[CompileOptions] = None,
        **option_overrides,
    ) -> dict:
        """Rebuild one registered workload through the tiered store —
        the whole-result cache is bypassed so every pass demonstrably
        re-runs unit by unit — and return the unit-reuse report
        (the ``POST /recompile`` body)."""
        spec = WORKLOADS.get(name)
        if spec is None:
            raise KeyError(
                f"unknown workload {name!r}; have {sorted(WORKLOADS)}"
            )
        if options is None:
            options = CompileOptions(
                cache_dir=self.cache_dir, peers=self.peers
            )
        if option_overrides:
            from dataclasses import replace

            options = replace(options, **option_overrides)
        result = pipeline_compile(
            spec.workload(),
            options=options,
            incremental=True,
            reuse_result=False,
        )
        summary = result.unit_summary()
        summary["workload"] = name
        summary["unit_report"] = result.unit_report()
        return summary

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "TraversalService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ===========================================================================
# HTTP front end
# ===========================================================================


class _Handler(BaseHTTPRequestHandler):
    service: TraversalService  # set by make_server

    # -- plumbing -------------------------------------------------------

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_bytes(self, blob: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _reply_text(self, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # quiet by default
        pass

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._reply(200, {"ok": True})
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        elif self.path == "/metrics":
            self._reply_text(
                self.service.metrics_text(),
                "text/plain; version=0.0.4",
            )
        elif self.path.startswith("/trace/"):
            trace_id = self.path.rsplit("/", 1)[1]
            spans = self.service.trace_spans(trace_id)
            if not spans:
                self._reply(404, {"error": f"no trace {trace_id!r}"})
                return
            self._reply(
                200, {"trace_id": trace_id, "spans": spans}
            )
        elif self.path.startswith("/result/"):
            try:
                request_id = int(self.path.rsplit("/", 1)[1])
            except ValueError:
                self._reply(400, {"error": "bad request id"})
                return
            self._reply(200, self.service.poll(request_id))
        elif self.path.startswith("/artifact/"):
            # /artifact/result/<source>/<output>, /artifact/unit/<pass>/<key>
            parts = self.path.split("/")
            if len(parts) != 5:
                self._reply(404, {"error": "bad artifact route"})
                return
            blob = self.service.artifact_bytes(*parts[2:5])
            if blob is None:
                self._reply(404, {"error": "no such artifact"})
                return
            self._reply_bytes(blob)
        else:
            self._reply(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:
        if self.path == "/compact":
            self._reply(200, self.service.compact_store())
            return
        if self.path == "/gc":
            try:
                payload = self._json_body()
                summary = self.service.gc(
                    pass_name=payload.get("pass")
                    or payload.get("pass_name"),
                    max_age_seconds=payload.get("max_age_seconds"),
                    max_bytes=payload.get("max_bytes"),
                )
            except Exception as error:
                self._reply(400, {"error": str(error)})
                return
            self._reply(200, summary)
            return
        if self.path == "/recompile":
            try:
                payload = self._json_body()
                name = payload.pop("workload")
                if payload:
                    # option overrides stay a programmatic-API affair:
                    # letting HTTP clients patch CompileOptions would
                    # hand them cache_dir (write anywhere) and peers
                    # (server-side requests to arbitrary URLs)
                    raise ValueError(
                        f"unsupported fields {sorted(payload)} — the "
                        f"recompile body takes only 'workload'"
                    )
                summary = self.service.recompile_workload(name)
            except Exception as error:
                self._reply(400, {"error": str(error)})
                return
            self._reply(200, summary)
            return
        if self.path == "/shutdown":
            self._reply(200, {"ok": True})
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
            return
        if self.path != "/submit":
            self._reply(404, {"error": f"no route {self.path!r}"})
            return
        try:
            payload = self._json_body()
            name = payload.pop("workload")
            request_id = self.service.submit_workload(name, **payload)
        except Exception as error:
            self._reply(400, {"error": str(error)})
            return
        self._reply(
            200,
            {
                "request_id": request_id,
                "trace_id": self.service.trace_id_for(request_id),
            },
        )

    def _json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        return json.loads(self.rfile.read(length) or b"{}")


def make_server(
    service: TraversalService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` (0 picks a free port; read
    the result from ``server.server_address``). Call ``serve_forever``
    — the ``/shutdown`` route stops it."""
    handler = type(
        "BoundHandler", (_Handler,), {"service": service}
    )
    return ThreadingHTTPServer((host, port), handler)
