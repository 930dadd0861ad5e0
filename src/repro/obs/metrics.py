"""The metrics registry: typed counters/gauges/histograms plus
compatibility views over the legacy ``stats()`` dicts.

Before this module the system's runtime counters lived in five
incompatible shapes — ``PassTiming.detail`` dicts, per-tier
``stats()``, ``BatchExecutor`` attributes, ``BatchMetrics`` records,
and ``LatencySeries`` summaries. They all still exist (every legacy
``stats()`` key keeps working), but they now *also* land in one
queryable namespace:

* **instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram`, created once per process through
  :data:`REGISTRY` (``REGISTRY.counter("repro_exec_trees_total")``),
  optionally labelled (``.labels(pass_name="fusion").inc()``), updated
  at event sites (the pass manager, the tiered store, the executor).
* **views** — named callbacks over the stateful legacy dicts
  (``REGISTRY.register_view("repro_cache", GLOBAL_CACHE.stats)``),
  polled at export time and flattened to numeric gauges. Registering a
  view costs nothing per event, so the tiers keep their own counters
  and the registry reads them on demand.

Exports: :meth:`MetricsRegistry.snapshot` (one JSON-ready dict — the
programmatic face) and :meth:`MetricsRegistry.render_prometheus` (the
text exposition format behind the service's ``GET /metrics``).

Instruments are cheap (one lock + one float op) and always on; the
<2% tracing-overhead gate in ``benchmarks/test_obs_overhead.py``
covers the instrumented warm path.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Optional, Sequence

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Prometheus-legal metric name (everything else becomes ``_``)."""
    return _NAME_RE.sub("_", name)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that goes up and down."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


#: Latency-shaped default buckets (seconds), Prometheus style.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket distribution (cumulative on export, like
    Prometheus): per-bucket counts plus sum/count."""

    kind = "histogram"
    __slots__ = ("buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        out = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def summary(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric with zero or more label dimensions; children
    are created on first use of a label combination. A label-less
    family proxies its single child, so ``REGISTRY.counter(n).inc()``
    works without a ``labels()`` hop."""

    def __init__(self, name: str, kind: str, help_text: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets) if buckets else None
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KINDS[self.kind]()

    def labels(self, **labels):
        try:
            key = tuple([str(labels[n]) for n in self.label_names])
        except KeyError:
            key = None
        if key is None or len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.label_names)}, got {sorted(labels)}"
            )
        # an existing child is one lock-free dict probe (atomic under
        # the GIL): every instrumented event pays this lookup, only a
        # new label combination pays the lock
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make()
        return child

    def samples(self) -> list[tuple[tuple, object]]:
        """``(label_values, instrument)`` pairs, insertion order."""
        with self._lock:
            return list(self._children.items())

    # -- label-less convenience ----------------------------------------

    def _default(self):
        child = self._children.get(())
        return child if child is not None else self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value


def _flatten_numeric(prefix: str, value, out: dict) -> None:
    """Flatten a legacy stats dict to dotted numeric leaves (strings,
    lists, and other shapes are dropped — they have no metric form)."""
    if isinstance(value, bool):
        out[prefix] = int(value)
    elif isinstance(value, (int, float)):
        out[prefix] = value
    elif isinstance(value, dict):
        for key, sub in value.items():
            _flatten_numeric(f"{prefix}_{key}" if prefix else str(key),
                             sub, out)


class MetricsRegistry:
    """One queryable namespace of instruments and legacy-dict views."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        self._views: dict[str, Callable[[], dict]] = {}

    # -- instrument creation (idempotent per name) ----------------------

    def _family(self, name: str, kind: str, help_text: str,
                labels: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {kind}"
                    )
                if family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{family.label_names}, not {tuple(labels)}"
                    )
                return family
            family = Family(name, kind, help_text, labels, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Family:
        return self._family(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Family:
        return self._family(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Family:
        return self._family(name, "histogram", help_text, labels, buckets)

    # -- legacy-dict views ----------------------------------------------

    def register_view(self, name: str,
                      producer: Callable[[], dict]) -> None:
        """(Re-)register a named callback whose dict is flattened to
        gauges at export time — the compatibility face of the legacy
        ``stats()`` surfaces. Last registration under a name wins (a
        restarted service re-registers its tiers)."""
        with self._lock:
            self._views[name] = producer

    def unregister_view(self, name: str) -> None:
        with self._lock:
            self._views.pop(name, None)

    def _view_values(self) -> dict[str, float]:
        with self._lock:
            views = list(self._views.items())
        out: dict[str, float] = {}
        for name, producer in views:
            try:
                produced = producer()
            except Exception:  # a dead view must not break a scrape
                continue
            _flatten_numeric(name, produced, out)
        return out

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-ready dict of everything: instruments by name (with
        ``name{label=value}`` keys for labelled children, histograms as
        count/sum/mean summaries) plus the flattened views."""
        with self._lock:
            families = list(self._families.values())
        out: dict = {}
        for family in families:
            for label_values, instrument in family.samples():
                key = family.name
                if family.label_names:
                    rendered = ",".join(
                        f"{n}={v}" for n, v in
                        zip(family.label_names, label_values)
                    )
                    key = f"{family.name}{{{rendered}}}"
                if family.kind == "histogram":
                    out[key] = instrument.summary()
                else:
                    out[key] = instrument.value
        out.update(self._view_values())
        return out

    def render_prometheus(self) -> str:
        """The text exposition format (``GET /metrics``)."""
        with self._lock:
            families = list(self._families.values())
        lines: list[str] = []

        def escape(value) -> str:
            return str(value).replace("\\", "\\\\").replace('"', '\\"')

        def label_text(names, values, extra=()):
            pairs = [f'{n}="{escape(v)}"' for n, v in zip(names, values)]
            pairs.extend(extra)
            return "{" + ",".join(pairs) + "}" if pairs else ""

        for family in families:
            name = sanitize_metric_name(family.name)
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for label_values, instrument in family.samples():
                labels = family.label_names
                if family.kind == "histogram":
                    for bound, count in instrument.cumulative():
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        le_pair = 'le="' + le + '"'
                        lines.append(
                            f"{name}_bucket"
                            f"{label_text(labels, label_values, [le_pair])}"
                            f" {count}"
                        )
                    lines.append(
                        f"{name}_sum{label_text(labels, label_values)}"
                        f" {instrument.sum}"
                    )
                    lines.append(
                        f"{name}_count{label_text(labels, label_values)}"
                        f" {instrument.count}"
                    )
                else:
                    lines.append(
                        f"{name}{label_text(labels, label_values)}"
                        f" {instrument.value}"
                    )
        view_values = self._view_values()
        for key in sorted(view_values):
            name = sanitize_metric_name(key)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {view_values[key]}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every instrument and view (tests only — production
        metrics are process-lifetime)."""
        with self._lock:
            self._families.clear()
            self._views.clear()


#: The process registry every subsystem registers into.
REGISTRY = MetricsRegistry()
