"""The metrics registry: typed instruments, label families, legacy
stats() views, and the Prometheus text exposition."""

import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    # a private registry per test — the process REGISTRY holds the
    # real subsystems' instruments and must not be reset
    return MetricsRegistry()


def test_counter_only_goes_up():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13.0


def test_histogram_buckets_and_summary():
    h = Histogram(buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        h.observe(value)
    assert h.count == 4
    assert h.sum == pytest.approx(6.05)
    cumulative = h.cumulative()
    assert cumulative == [(0.1, 1), (1.0, 3), (float("inf"), 4)]
    summary = h.summary()
    assert summary["count"] == 4
    assert summary["mean"] == pytest.approx(6.05 / 4)


def test_labelled_family_children_are_independent(registry):
    family = registry.counter("hits", labels=("tier",))
    family.labels(tier="memory").inc()
    family.labels(tier="memory").inc()
    family.labels(tier="disk").inc()
    assert family.labels(tier="memory").value == 2
    assert family.labels(tier="disk").value == 1


def test_label_set_is_validated(registry):
    family = registry.counter("hits", labels=("tier",))
    with pytest.raises(ValueError):
        family.labels(wrong="x")
    with pytest.raises(ValueError):
        family.labels()  # missing the tier label entirely
    family.labels(tier="memory").inc()
    with pytest.raises(ValueError):
        # an existing child is found without the lock; the extra label
        # must still be refused
        family.labels(tier="memory", extra="x")


def test_racing_label_lookups_keep_one_child_per_label(registry):
    # label lookups skip the lock once a child exists: threads racing to
    # create and bump the same children must not lose a child or a count
    family = registry.counter("races", labels=("slot",))
    workers, slots = 8, 2000
    start = threading.Barrier(workers)

    def bump():
        start.wait(timeout=60)
        for slot in range(slots):
            family.labels(slot=slot).inc()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    samples = family.samples()
    assert len(samples) == slots
    assert sum(child.value for _, child in samples) == workers * slots


def test_registration_is_idempotent_but_kind_checked(registry):
    first = registry.counter("requests", "help text")
    again = registry.counter("requests")
    assert first is again
    with pytest.raises(ValueError):
        registry.gauge("requests")
    with pytest.raises(ValueError):
        registry.counter("requests", labels=("status",))


def test_views_flatten_to_numeric_leaves(registry):
    registry.register_view(
        "legacy",
        lambda: {
            "hits": 3,
            "ratio": 0.5,
            "alive": True,
            "label": "memory",        # strings dropped
            "recent": [1, 2, 3],       # lists dropped
            "nested": {"loads": 7},
        },
    )
    snapshot = registry.snapshot()
    assert snapshot["legacy_hits"] == 3
    assert snapshot["legacy_ratio"] == 0.5
    assert snapshot["legacy_alive"] == 1
    assert snapshot["legacy_nested_loads"] == 7
    assert "legacy_label" not in snapshot
    assert "legacy_recent" not in snapshot


def test_broken_view_does_not_break_snapshot(registry):
    registry.register_view("bad", lambda: 1 / 0)
    registry.register_view("good", lambda: {"n": 1})
    assert registry.snapshot() == {"good_n": 1}
    registry.unregister_view("good")
    assert registry.snapshot() == {}


def test_snapshot_renders_labelled_keys(registry):
    registry.counter("c", labels=("k",)).labels(k="v").inc()
    registry.histogram("h").observe(0.2)
    snapshot = registry.snapshot()
    assert snapshot["c{k=v}"] == 1
    assert snapshot["h"]["count"] == 1


def test_prometheus_rendering_parses(registry):
    registry.counter(
        "repro_requests_total", "requests", labels=("status",)
    ).labels(status="ok").inc(3)
    registry.gauge("repro_depth").set(2)
    registry.histogram("repro_seconds", buckets=(0.1, 1.0)).observe(0.5)
    registry.register_view("svc", lambda: {"uptime": 1.5})
    text = registry.render_prometheus()
    lines = [
        line for line in text.splitlines()
        if line and not line.startswith("#")
    ]
    parsed = {}
    for line in lines:
        name, value = line.rsplit(" ", 1)
        parsed[name] = float(value)
    assert parsed['repro_requests_total{status="ok"}'] == 3.0
    assert parsed["repro_depth"] == 2.0
    assert parsed['repro_seconds_bucket{le="0.1"}'] == 0.0
    assert parsed['repro_seconds_bucket{le="1.0"}'] == 1.0
    assert parsed['repro_seconds_bucket{le="+Inf"}'] == 1.0
    assert parsed["repro_seconds_sum"] == 0.5
    assert parsed["repro_seconds_count"] == 1.0
    assert parsed["svc_uptime"] == 1.5
    # HELP/TYPE metadata precedes the samples
    assert "# HELP repro_requests_total requests" in text
    assert "# TYPE repro_seconds histogram" in text


def test_process_registry_carries_subsystem_instruments():
    # importing the instrumented modules registers their families in
    # the process registry; spot-check the names the scrape exposes
    import repro.pipeline.manager  # noqa: F401
    import repro.service.executor  # noqa: F401
    import repro.storage.tiered  # noqa: F401
    from repro.obs import REGISTRY

    text = REGISTRY.render_prometheus()
    for name in (
        "repro_pass_seconds",
        "repro_pass_units_total",
        "repro_storage_lookups_total",
        "repro_exec_requests_total",
        "repro_exec_trees_total",
        "repro_exec_waves_total",
        "repro_exec_tree_seconds",
    ):
        assert f"# TYPE {name}" in text
