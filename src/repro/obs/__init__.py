"""Unified observability: request-scoped tracing, the metrics
registry, and trace/metric exporters.

One import serves every layer (``from repro import obs``):

* **tracing** — ``obs.span("fusion.grouping", width=3)`` context
  managers with a context-local current span; one trace ID minted at
  ``Session.compile()`` or the service's ``/submit`` follows the
  request through the pass manager, every storage-tier lookup (tier
  hit/miss as span attributes), and executor dispatch — across
  thread/process pools via ``obs.current_context()`` /
  ``obs.span_from(ctx, ...)``. Disabled (the default) it costs one
  function call per site; enable with ``obs.enable()``, the
  ``REPRO_TRACE`` environment variable, a forced root span
  (``obs.span(name, force=True)``), or the service/CLI tracing flags. See :mod:`repro.obs.trace`.
* **metrics** — ``obs.REGISTRY``: typed counters/gauges/histograms the
  pipeline, storage tiers, and executor register into, plus
  compatibility views over the legacy ``stats()`` dicts; exported as a
  JSON snapshot or Prometheus text (``GET /metrics``). See
  :mod:`repro.obs.metrics`.
* **export** — Chrome ``trace_event`` JSON for ``chrome://tracing``,
  JSONL, and the CLI flame summary. See :mod:`repro.obs.export`.
"""

from repro.obs.export import (
    read_jsonl,
    render_tree,
    span_tree,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    collect_spans,
    current_context,
    disable,
    enable,
    get_tracer,
    ingest,
    span,
    span_from,
)

__all__ = [
    "NOOP_SPAN",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Tracer",
    "collect_spans",
    "current_context",
    "disable",
    "enable",
    "get_tracer",
    "ingest",
    "read_jsonl",
    "render_tree",
    "span",
    "span_from",
    "span_tree",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
