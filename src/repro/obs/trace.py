"""Request-scoped tracing: spans, a context-local current span, and a
bounded ring buffer of finished spans.

One :class:`Tracer` per process. A **span** is a timed, attributed
operation (``obs.span("fusion.grouping", width=3)``); spans nest through
a :mod:`contextvars` current-span variable, so one trace ID minted at
the root — ``Session.compile()``, the service's ``/submit`` — follows
the request through the pass manager, every storage-tier lookup, and
executor dispatch without any call site threading IDs by hand.

The recording decision is made once, at the root:

* with the tracer **disabled** (the default) and no active parent,
  :func:`span` returns the shared :data:`NOOP_SPAN` — no allocation, no
  clock reads, nothing buffered. Instrumentation left in hot paths
  costs one function call and a context-variable read.
* with the tracer **enabled**, roots are sampled at ``sample`` (a
  deterministic rate accumulator, not a PRNG — ``sample=0.5`` records
  exactly every other root) and every descendant of a recorded root is
  recorded, even across threads and processes: :func:`current_context`
  serializes the active span to a picklable ``(trace_id, span_id)``
  pair and :func:`span_from` reparents under it on the far side.
* ``force=True`` records one root regardless of the switch, and with it
  everything under that root: ``repro exec --trace-out`` and ``repro
  trace`` record one invocation this way.

Finished spans land in the tracer's ring buffer (capacity
``REPRO_TRACE_BUFFER``, default 8192) as plain dicts — picklable and
JSON-ready for the exporters in :mod:`repro.obs.export`. Worker pools
use :func:`collect_spans` to divert a task's spans into a local list
that travels back with the result and is re-ingested by the parent
(:func:`ingest`), so process-pool shards appear in the parent's trace.

Environment: ``REPRO_TRACE`` enables tracing process-wide (``1``/
``true``, or a sample rate like ``0.25``); ``REPRO_TRACE_BUFFER`` sets
the ring capacity.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Iterable, Optional

#: A serialized span context: the picklable ``(trace_id, span_id)``
#: pair :func:`current_context` hands out and :func:`span_from` accepts.
SpanContext = tuple

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
_SINK: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "repro_obs_span_sink", default=None
)

# span ids are unique per process *and* distinguishable across the
# process-pool boundary: a per-process random tag plus a counter
_PROC_TAG = secrets.token_hex(4)
_ids = itertools.count(1)


def _new_span_id() -> str:
    return f"{_PROC_TAG}.{next(_ids)}"


def _new_trace_id() -> str:
    return secrets.token_hex(8)


class _NoopSpan:
    """The shared do-nothing span instrumentation sites get when
    tracing is off: one instance, no state, every method a no-op."""

    __slots__ = ()
    recorded = False
    trace_id = None
    span_id = None
    parent_id = None
    context: Optional[SpanContext] = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed operation within a trace.

    Use as a context manager: ``__enter__`` makes it the context-local
    current span (children parent to it automatically), ``__exit__``
    stamps the duration and hands the exported record to the tracer.
    ``set(**attrs)`` adds attributes mid-flight — tier hit/miss flags,
    cache outcomes, sizes.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "start_wall",
        "duration",
        "_start_perf",
        "_token",
        "_tracer",
    )
    recorded = True

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: str, parent_id: Optional[str], attrs: dict):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_wall = time.time()
        self.duration = 0.0
        self._start_perf = time.perf_counter()
        self._token = None
        self._tracer = tracer

    @property
    def context(self) -> SpanContext:
        """The picklable ``(trace_id, span_id)`` pair children parent
        to — what crosses thread/process-pool boundaries."""
        return (self.trace_id, self.span_id)

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def export(self) -> dict:
        """The finished-span record: plain JSON-ready dict."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start_wall,
            "duration": self.duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": dict(self.attrs),
        }

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._start_perf
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._finish(self.export())
        return False


class Tracer:
    """Process tracer: the on/off switch, root sampling, and the
    bounded ring buffer of finished spans (see module doc)."""

    def __init__(self, capacity: int = 8192):
        self.enabled = False
        self.sample = 1.0
        self._acc = 0.0
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=max(1, capacity))

    @property
    def capacity(self) -> int:
        return self._spans.maxlen

    def configure(
        self,
        enabled: Optional[bool] = None,
        sample: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> None:
        """Adjust the switch, the root sample rate, and/or the ring
        capacity (resizing keeps the newest spans)."""
        if enabled is not None:
            self.enabled = enabled
        if sample is not None:
            self.sample = min(max(float(sample), 0.0), 1.0)
        if capacity is not None:
            with self._lock:
                self._spans = deque(self._spans, maxlen=max(1, capacity))

    # -- recording decision --------------------------------------------

    def _sample_root(self) -> bool:
        if not self.enabled:
            return False
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        # deterministic rate accumulator: sample=1/N records every Nth
        # root exactly, with no PRNG state to seed in tests
        with self._lock:
            self._acc += self.sample
            if self._acc >= 1.0:
                self._acc -= 1.0
                return True
            return False

    # -- span construction ---------------------------------------------

    def span(self, name: str, *, force: bool = False, **attrs):
        """A child of the context-local current span, or — with no
        active parent — a sampled (or ``force``-recorded) new root.
        Returns :data:`NOOP_SPAN` when nothing is recording."""
        parent = _CURRENT.get()
        if parent is not None:
            return Span(self, name, parent.trace_id, parent.span_id, attrs)
        if force or self._sample_root():
            return Span(self, name, _new_trace_id(), None, attrs)
        return NOOP_SPAN

    def span_from(self, ctx: Optional[SpanContext], name: str, **attrs):
        """A span reparented under a serialized context — the far side
        of a thread/process-pool dispatch. ``ctx=None`` falls back to
        :meth:`span` (the ambient parent, or sampling)."""
        if ctx is None:
            return self.span(name, **attrs)
        trace_id, parent_id = ctx
        return Span(self, name, trace_id, parent_id, attrs)

    # -- finished spans -------------------------------------------------

    def _finish(self, exported: dict) -> None:
        sink = _SINK.get()
        if sink is not None:
            sink.append(exported)
            return
        with self._lock:
            self._spans.append(exported)

    def ingest(self, exported: Iterable[dict]) -> None:
        """Adopt spans recorded elsewhere (a worker's
        :func:`collect_spans` bucket) into this tracer's buffer."""
        sink = _SINK.get()
        if sink is not None:
            sink.extend(exported)
            return
        with self._lock:
            self._spans.extend(exported)

    def spans(self, trace_id: Optional[str] = None) -> list[dict]:
        """Buffered finished spans, oldest first; optionally filtered
        to one trace."""
        with self._lock:
            out = list(self._spans)
        if trace_id is not None:
            out = [s for s in out if s["trace_id"] == trace_id]
        return out

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in the buffer, oldest first."""
        seen: dict[str, None] = {}
        for record in self.spans():
            seen.setdefault(record["trace_id"], None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._acc = 0.0

    @contextmanager
    def collect(self):
        """Divert this context's finished spans into a fresh list —
        how a pool worker gathers its shard's spans to ship back."""
        bucket: list = []
        token = _SINK.set(bucket)
        try:
            yield bucket
        finally:
            _SINK.reset(token)


# ===========================================================================
# the process tracer + module-level convenience API
# ===========================================================================


def _capacity_from_env() -> int:
    raw = os.environ.get("REPRO_TRACE_BUFFER", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 8192


_TRACER = Tracer(capacity=_capacity_from_env())


def _configure_from_env(tracer: Tracer) -> None:
    raw = os.environ.get("REPRO_TRACE", "").strip().lower()
    if not raw or raw in ("0", "false", "off", "no"):
        return
    if raw in ("1", "true", "on", "yes"):
        tracer.configure(enabled=True, sample=1.0)
        return
    try:
        rate = float(raw)
    except ValueError:
        rate = 1.0
    if rate > 0:
        tracer.configure(enabled=True, sample=rate)


_configure_from_env(_TRACER)


def get_tracer() -> Tracer:
    """The process tracer."""
    return _TRACER


def span(name: str, *, force: bool = False, **attrs):
    """Open a span on the process tracer (see :meth:`Tracer.span`)."""
    # tracing off, no parent, not forced: nothing can record, so every
    # instrumented site takes this one-branch path to the noop span
    if not (force or _TRACER.enabled) and _CURRENT.get() is None:
        return NOOP_SPAN
    return _TRACER.span(name, force=force, **attrs)


def span_from(ctx: Optional[SpanContext], name: str, **attrs):
    """Open a span under a serialized context (see
    :meth:`Tracer.span_from`)."""
    if ctx is None:
        return span(name, **attrs)
    return _TRACER.span_from(ctx, name, **attrs)


def current_context() -> Optional[SpanContext]:
    """The active span's picklable ``(trace_id, span_id)``, or ``None``
    when nothing is recording in this context."""
    cur = _CURRENT.get()
    if cur is None:
        return None
    return cur.context


def enable(sample: float = 1.0) -> None:
    """Turn process-wide tracing on at the given root sample rate."""
    _TRACER.configure(enabled=True, sample=sample)


def disable() -> None:
    """Turn process-wide tracing off (buffered spans stay readable)."""
    _TRACER.configure(enabled=False)


_NO_BUCKET = nullcontext(None)


def collect_spans(enabled: bool = True):
    """Divert this context's spans into a list (``None`` when
    ``enabled`` is false — the no-tracing fast path keeps one shape at
    the call site)."""
    if not enabled:
        return _NO_BUCKET
    return _TRACER.collect()


def ingest(spans: Optional[Iterable[dict]]) -> None:
    """Adopt worker-collected spans into the process tracer."""
    if spans:
        _TRACER.ingest(spans)
