"""Trace propagation across the executor's pool boundaries: the span
context rides the ExecRequest, shards reparent under it in the worker
(thread, inline, or a separate process), and worker-recorded spans
ship home inside the ShardRun."""

import pickle

import pytest

from repro import obs
from repro.service.api import WORKLOADS
from repro.service.executor import BatchExecutor, _execute_shard
from repro.service.batching import Shard, shard_group, group_requests


def kdtree_request(trees: int, depth: int):
    return WORKLOADS["kdtree"].workload().request(trees, depth=depth)


def run_traced(backend: str, workers: int = 2, trees: int = 4):
    """Execute one request under a forced root span; returns the
    trace's spans."""
    with BatchExecutor(workers=workers, backend=backend) as executor:
        with obs.span("test.root", force=True) as root:
            trace_id = root.trace_id
            request = kdtree_request(trees, 3)
            request.trace_context = root.context
            results = executor.run([request])
    assert results[0].ok, results[0].error
    return obs.get_tracer().spans(trace_id), results[0]


@pytest.mark.parametrize("backend", ["inline", "thread", "process"])
def test_shard_spans_join_the_submitting_trace(backend):
    spans, result = run_traced(backend)
    names = {record["name"] for record in spans}
    assert "exec.group" in names
    assert "exec.shard" in names
    shard_spans = [r for r in spans if r["name"] == "exec.shard"]
    assert sum(r["attrs"]["trees"] for r in shard_spans) == len(
        result.trees
    )
    # one trace, fully connected: every parent resolves in-trace
    ids = {record["span_id"] for record in spans}
    for record in spans:
        if record["parent_id"] is not None:
            assert record["parent_id"] in ids


def test_process_shards_record_in_worker_processes():
    import os

    spans, _ = run_traced("process")
    shard_pids = {
        r["pid"] for r in spans if r["name"] == "exec.shard"
    }
    # the spans were recorded in pool workers, not the parent — yet
    # they reached the parent's ring via the ShardRun span bucket
    assert shard_pids and os.getpid() not in shard_pids
    group = next(r for r in spans if r["name"] == "exec.group")
    assert group["pid"] == os.getpid()
    # shards parent to the *request's* own span (test.root rode in on
    # request.trace_context), so multi-request groups attribute each
    # shard to the right submitter
    root = next(r for r in spans if r["name"] == "test.root")
    for record in spans:
        if record["name"] == "exec.shard":
            assert record["parent_id"] == root["span_id"]


def test_group_span_records_compile_outcome_and_shape():
    spans, _ = run_traced("inline", workers=1)
    group = next(r for r in spans if r["name"] == "exec.group")
    assert group["attrs"]["requests"] == 1
    assert group["attrs"]["trees"] == 4
    assert group["attrs"]["shards"] >= 1
    assert "compile_cache_hit" in group["attrs"]


def test_shard_run_payload_pickles_with_spans():
    """The exact object the process pool returns — results plus the
    span bucket — must survive pickling."""
    request = kdtree_request(2, 2)
    with obs.span("test.root", force=True) as root:
        ctx = root.context
    outcome = _execute_shard(request, [0, 1], pickle.loads(
        pickle.dumps(ctx)
    ))
    wire = pickle.loads(pickle.dumps(outcome))
    assert len(wire.trees) == 2
    assert wire.spans, "worker-side spans travel with the result"
    assert all(s["trace_id"] == root.trace_id for s in wire.spans)
    shard = next(s for s in wire.spans if s["name"] == "exec.shard")
    assert shard["parent_id"] == root.span_id


def test_untraced_shard_collects_nothing():
    request = kdtree_request(1, 2)
    outcome = _execute_shard(request, [0], None)
    assert outcome.spans is None
    assert len(outcome.trees) == 1


def test_submit_captures_ambient_context():
    with BatchExecutor(workers=1, backend="inline") as executor:
        with obs.span("submitter", force=True) as root:
            ticket = executor.submit(kdtree_request(1, 2))
        result = ticket.result(timeout=60)
    assert result.ok, result.error
    spans = obs.get_tracer().spans(root.trace_id)
    names = {record["name"] for record in spans}
    # the dispatcher thread ran the wave, yet the group span reparented
    # under the submitter's trace via the captured context
    assert "exec.group" in names
    assert "exec.shard" in names
