"""Tracing through the compile pipeline: one trace per compile with
pass, unit, and storage-tier spans, recorded under a forced root span
(``obs.span(name, force=True)``) without flipping the process tracer
on."""

from repro import obs
from repro.pipeline import (
    CompileOptions,
    compile as pipeline_compile,
)
from repro.storage import MemoryTier

from tests.fixtures import FIG2_SOURCE


def spans_of_last_trace():
    tracer = obs.get_tracer()
    trace_id = tracer.trace_ids()[-1]
    return tracer.spans(trace_id)


def traced_compile(source, **kwargs):
    """``pipeline.compile`` under a forced root span: the process
    tracer stays off, and everything under the root records."""
    with obs.span("test.compile", force=True):
        return pipeline_compile(source, **kwargs)


def test_traced_compile_records_pass_and_unit_spans():
    options = CompileOptions(use_cache=False)
    result = traced_compile(FIG2_SOURCE, options=options, cache=None)
    assert not result.cache_hit
    spans = spans_of_last_trace()
    names = {record["name"] for record in spans}
    assert "pipeline.compile" in names
    # every pipeline stage produced a span under the compile root
    pass_names = {
        n.split(".", 1)[1] for n in names if n.startswith("pass.")
    }
    assert {"parse", "fusion", "emit"} <= pass_names
    assert any(n.startswith("unit.") for n in names)
    # one trace, fully connected: every parent id resolves in-trace
    ids = {record["span_id"] for record in spans}
    for record in spans:
        if record["parent_id"] is not None:
            assert record["parent_id"] in ids
    roots = [r for r in spans if r["parent_id"] is None]
    assert [r["name"] for r in roots] == ["test.compile"]
    compiles = [r for r in spans if r["name"] == "pipeline.compile"]
    assert [r["parent_id"] for r in compiles] == [roots[0]["span_id"]]


def test_compile_root_span_carries_cache_outcome():
    cache = MemoryTier()
    options = CompileOptions()
    traced_compile(FIG2_SOURCE, options=options, cache=cache)
    cold_root = next(
        r for r in spans_of_last_trace()
        if r["name"] == "pipeline.compile"
    )
    assert cold_root["attrs"]["cache_hit"] is False
    assert cold_root["attrs"]["passes"] > 0
    warm = traced_compile(FIG2_SOURCE, options=options, cache=cache)
    assert warm.cache_hit
    warm_spans = spans_of_last_trace()
    warm_root = next(
        r for r in warm_spans if r["name"] == "pipeline.compile"
    )
    assert warm_root["attrs"]["cache_hit"] is True
    # the whole-result lookup span names the serving tier
    lookup = next(
        r for r in warm_spans if r["name"] == "storage.result"
    )
    assert lookup["attrs"]["hit"] is True
    assert lookup["attrs"]["tier"] == "memory"


def test_storage_miss_span_on_cold_compile():
    cache = MemoryTier()
    traced_compile(FIG2_SOURCE, options=CompileOptions(), cache=cache)
    spans = spans_of_last_trace()
    lookups = [r for r in spans if r["name"] == "storage.result"]
    assert lookups and all(
        r["attrs"]["hit"] is False for r in lookups
    )
    # per-unit lookups also traced, attributed to their pass
    unit_lookups = [r for r in spans if r["name"] == "storage.unit"]
    assert unit_lookups
    assert all("pass_name" in r["attrs"] for r in unit_lookups)


def test_untraced_compile_records_nothing_new():
    tracer = obs.get_tracer()
    before = len(tracer.spans())
    pipeline_compile(
        FIG2_SOURCE, options=CompileOptions(use_cache=False), cache=None
    )
    assert len(tracer.spans()) == before
