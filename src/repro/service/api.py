"""Service front end: workload registry, facade, and HTTP server.

:class:`TraversalService` is HTTP bookkeeping over one
:class:`~repro.api.session.Session`: the session compiles, runs,
stores and reports (its store holds the server's ``cache_dir`` and
``peers``, its options template the default layout), and the service adds
tickets, trace ids, per-layout and per-mode counters, and raw artifact
bytes for peers. The workload registry maps names (``"render"``) to
workload bundles so callers (CLI, HTTP, tests) can say *what* to run
without holding tree-builder callables.

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
    GET  /artifact/<kind>/...
                             -> raw stored payload bytes (routes:
                                repro.storage.artifact_route): this
                                server's store served as a PeerTier, so
                                another host's compile can start warm
                                here
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
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro import __version__, obs
from repro.api.session import Session
from repro.pipeline import CompileOptions
from repro.service.executor import RequestResult
from repro.storage import route_key


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

    def size_kwargs(self, size: Optional[int]) -> dict:
        """A generic ``size`` (the CLI's ``--size``, the /submit body's
        ``"size"``) in this workload's own vocabulary."""
        return {} if size is None else {self.size_kwarg: size}


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


def workload_spec(name: str) -> WorkloadSpec:
    """The registered workload *name*; ``KeyError`` names the known
    ones."""
    spec = WORKLOADS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown workload {name!r}; have {sorted(WORKLOADS)}"
        )
    return spec


# ===========================================================================
# the facade
# ===========================================================================


class TraversalService:
    """HTTP bookkeeping over one :class:`~repro.api.session.Session`
    (see the module docstring). Run/submit, stats, GC, compaction and
    recompiles are the session's; a submit that names a ``layout``
    runs that layout, any other takes the session's default."""

    def __init__(
        self,
        workers: int = 2,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        max_tickets: int = 1024,
        peers: tuple = (),
        layout: Optional[str] = None,
    ):
        self.session = Session(
            cache_dir,
            peers=peers,
            workers=workers,
            backend=backend,
            layout=layout,
        )
        self.max_tickets = max_tickets
        self._tickets: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.Lock()
        # per-layout submission counters (reported under /stats
        # "layouts"), counted from the options each request runs under
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
        # /stats always has, without double bookkeeping. The newest
        # service owns the names (a store-less one leaves no store
        # view behind); close() drops only the views still its own.
        self._views = {
            "repro_cache": self.session.memory.stats,
            "repro_service": self._identity_view,
        }
        if self.session.store is not None:
            self._views["repro_store"] = self.session.store.stats
        else:
            obs.REGISTRY.unregister_view("repro_store")
        for name, producer in self._views.items():
            obs.REGISTRY.register_view(name, producer)

    def _identity_view(self) -> dict:
        with self._lock:
            total = self._requests_total
        return {
            "uptime_seconds": time.time() - self.started,
            "requests_total": total,
        }

    # -- submission -----------------------------------------------------

    def submit_workload(
        self,
        name: str,
        trees: int = 8,
        fused: bool = True,
        size: Optional[int] = None,
        layout: Optional[str] = None,
        mode: str = "compiled",
        **spec_kwargs,
    ) -> int:
        """Queue one forest of a registered workload — the ``POST
        /submit`` body — and return its request id. ``size`` maps onto
        the workload's own knob; ``layout`` ('object' | 'pooled') and
        ``mode`` ('compiled' | 'interpret') are per request."""
        spec = workload_spec(name)
        request = self.session.request(
            spec.workload(),
            trees,
            fused=fused,
            options=(
                self.session.options_for(layout=layout)
                if layout is not None
                else None
            ),
            mode=mode,
            **{**spec.size_kwargs(size), **spec_kwargs},
        )
        layout = request.options.layout
        # the trace root for this request (when tracing is on): the
        # executor's group/shard spans reparent under it via the
        # context stamped onto the request, even though execution
        # happens later, on other threads/processes
        with obs.span(
            "service.submit",
            request_id=request.request_id,
            trees=len(request.trees),
            layout=layout,
            mode=request.mode,
        ) as span:
            if span.recorded:
                request.trace_context = span.context
            ticket = self.session.executor.submit(request)
        with self._lock:
            self._requests_total += 1
            if span.recorded:
                self._trace_ids[request.request_id] = span.trace_id
                while len(self._trace_ids) > self.max_tickets:
                    self._trace_ids.popitem(last=False)
            self._layout_counts[layout] = (
                self._layout_counts.get(layout, 0) + 1
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
        """The ``GET /stats`` body: the session's record (``executor``,
        ``compile_cache``, ``store`` — ``None`` without a store — and
        the tier-labelled ``storage``) plus the service's identity and
        counters."""
        with self._lock:
            layouts = dict(sorted(self._layout_counts.items()))
            modes = dict(sorted(self._mode_counts.items()))
            requests_total = self._requests_total
        return {
            "version": __version__,
            "uptime_seconds": time.time() - self.started,
            "requests_total": requests_total,
            **self.session.stats(),
            "workloads": sorted(WORKLOADS),
            "layouts": layouts,
            "modes": modes,
            "interpreted_requests_total": modes.get("interpret", 0),
            "compiled_requests_total": modes.get("compiled", 0),
        }

    def compact_store(self) -> dict:
        """Run one artifact-store compaction (no-op without a store)."""
        return self.session.compact()

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """One GC policy across the session's writable tiers (the
        memory cache's unit layer + the store); see
        :meth:`repro.storage.TieredStore.gc`."""
        return self.session.gc(
            pass_name=pass_name,
            max_age_seconds=max_age_seconds,
            max_bytes=max_bytes,
        )

    # -- storage endpoints ----------------------------------------------

    def artifact_bytes(self, kind: str, key) -> Optional[bytes]:
        """The raw stored payload for one artifact, or ``None`` — the
        ``GET /artifact/...`` body that lets another host mount this
        service as a :class:`~repro.storage.PeerTier`. The key comes
        validated from :func:`~repro.storage.route_key`; the requesting
        peer re-validates the payload itself on decode."""
        store = self.session.store
        if store is None:
            return None
        return store.payload(kind, key)

    def recompile_workload(
        self,
        name: str,
        options: Optional[CompileOptions] = None,
        **option_overrides,
    ) -> dict:
        """Rebuild one registered workload through the session's
        tiered store — the whole-result cache is bypassed so every pass
        demonstrably re-runs unit by unit — and return the unit-reuse
        report (the ``POST /recompile`` body)."""
        result = self.session.recompile(
            workload_spec(name).workload(),
            options=options,
            **option_overrides,
        ).result
        summary = result.unit_summary()
        summary["workload"] = name
        summary["unit_report"] = result.unit_report()
        return summary

    def close(self) -> None:
        for name, producer in self._views.items():
            obs.REGISTRY.unregister_view(name, producer)
        self.session.close()

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

    def _reply_error(self, error: Exception) -> None:
        # a KeyError's str() is the repr of its message, quotes and all
        if isinstance(error, KeyError) and error.args:
            message = str(error.args[0])
        else:
            message = str(error)
        self._reply(400, {"error": message})

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
            try:
                address = route_key(self.path)
            except ValueError as error:
                self._reply(404, {"error": str(error)})
                return
            blob = address and self.service.artifact_bytes(*address)
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
                self._reply_error(error)
                return
            self._reply(200, summary)
            return
        if self.path == "/recompile":
            try:
                payload = self._json_body()
                name = payload.pop("workload")
                if payload:
                    # option overrides stay a programmatic-API affair:
                    # a recompile over HTTP rebuilds what /submit
                    # serves, and letting clients pick the mode or the
                    # fusion cutoffs would fill the server's store with
                    # variants no request runs (or a compile with
                    # cutoffs large enough to stall the server)
                    raise ValueError(
                        f"unsupported fields {sorted(payload)} — the "
                        f"recompile body takes only 'workload'"
                    )
                summary = self.service.recompile_workload(name)
            except Exception as error:
                self._reply_error(error)
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
            self._reply_error(error)
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
