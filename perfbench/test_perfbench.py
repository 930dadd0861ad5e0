"""Tests for the benchmark's own logic: the seeded operation list, the
host-speed scaling, the percentile rule, the calibration guard and the
reference check. ``python3 -m pytest perfbench`` from the repo root
with ``PYTHONPATH=src``."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from collections import Counter

import pytest

import hostclock
import oplist

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("workload", oplist.WORKLOADS)
def test_operation_list_is_a_function_of_the_seed(workload):
    first = oplist.build(workload, 7, 15)
    assert first == oplist.build(workload, 7, 15)
    other = oplist.build(workload, 8, 15)
    assert (first.requests, first.arrivals) != (
        other.requests, other.arrivals)


def test_serve_workloads_draw_one_request_list():
    objects = oplist.build("serve-object", 3, 15)
    pooled = oplist.build("serve-pooled", 3, 15)
    assert objects.requests == pooled.requests
    assert objects.arrivals == pooled.arrivals


def test_decks_balance_programs_and_forest_sizes():
    ops = oplist.build("serve-object", 11, 15)
    per_program = Counter(r.program for r in ops.requests)
    assert set(per_program.values()) == {len(ops.requests) // 4}
    for program in oplist.PROGRAMS:
        sizes = Counter(
            len(r.specs) for r in ops.requests if r.program == program)
        assert set(sizes) == set(range(1, oplist.MAX_FOREST + 1))
        assert len(set(sizes.values())) == 1
        trees_per_spec = Counter(
            spec for r in ops.requests if r.program == program
            for spec in r.specs)
        assert set(trees_per_spec) == set(ops.pools[program])
        assert len(set(trees_per_spec.values())) == 1
    arrivals = Counter(a.program for a in ops.arrivals)
    assert arrivals == {p: n * oplist.SERVE_ROUNDS
                        for p, n in oplist.ARRIVALS_PER_ROUND.items()}
    for arrival in ops.arrivals:
        assert sum(s.size for s in arrival.forest) == sum(
            oplist.SIZE_RANGE[arrival.program])


def test_spec_pools_are_stratified():
    ops = oplist.build("cold-start", 5, 15)
    assert [s.size for s in ops.pools["render"]] == list(range(1, 9))
    assert [s.size for s in ops.pools["kdtree"]] == [4, 4, 5, 5, 6, 6, 7, 7]


def test_scaling_math():
    assert hostclock.lower_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 2.0
    assert hostclock.lower_quartile([3.0, 1.0]) == 1.0
    calibs = [2.0, 4.0, 4.0, 1.0]
    # windows of half-width 1: [2, 4], [2, 4, 4], [4, 4, 1], [4, 1]
    ref = hostclock.REF_CALIB_MS
    assert hostclock.scale_factors(calibs, 1) == pytest.approx(
        [ref / 2, ref / 2, ref / 1, ref / 1])
    # one workload on a host twice as slow reads the same once scaled,
    # and reads as measured at the reference loop time
    assert hostclock.scale_factors([ref] * 5) == [1.0] * 5
    assert hostclock.scale_factors([2 * ref] * 5) == [0.5] * 5
    # an operation between bursts at every reference time needs no
    # scaling; one twice as slow on every probe is scaled by half, and
    # one that slowed down in between counts each burst half
    at_ref = {"loop": [ref] * 3, "pages": [hostclock.REF_PAGES_MS]}
    twice = {"loop": [2 * ref] * 3, "pages": [2 * hostclock.REF_PAGES_MS]}
    assert hostclock.bracket_factor(at_ref, at_ref) == pytest.approx(1.0)
    assert hostclock.bracket_factor(twice, twice) == pytest.approx(0.5)
    assert hostclock.bracket_factor(at_ref, twice) == pytest.approx(
        2 ** -0.5)


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 201))
    assert hostclock.percentile(values, 0.95) == 190
    with pytest.raises(hostclock.InsufficientSamples):
        hostclock.percentile(values[:199], 0.95)
    assert hostclock.percentile(values[:11], 0.0) == 1
    assert hostclock.percentile([3.0] * 20, 0.5) == 3.0
    with pytest.raises(hostclock.InsufficientSamples):
        hostclock.percentile([], 0.5)


def test_geomean():
    assert hostclock.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)


def test_calibration_refuses_a_trace_hook():
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        with pytest.raises(hostclock.CalibrationError):
            hostclock.calibrate()
    finally:
        sys.settrace(previous)
    assert hostclock.calibrate() > 0


def test_calibration_refuses_a_busy_thread():
    stop = threading.Event()
    started = threading.Event()
    block = b"x" * (64 << 20)

    def churn():
        # hashing a large buffer releases the GIL for its whole length,
        # so this thread burns CPU beside the loop whatever the
        # interpreter's thread switching does
        while not stop.is_set():
            started.set()
            hashlib.sha256(block).digest()

    def refused() -> bool:
        try:
            hostclock.calibrate()
        except hostclock.CalibrationError:
            return True
        return False

    worker = threading.Thread(target=churn, daemon=True)
    worker.start()
    try:
        assert started.wait(timeout=10)
        # the kernel charges a thread running on another CPU in
        # scheduler ticks, so one 2 ms loop sees it about half the time
        assert any(refused() for _ in range(50))
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert not refused()


def test_benchmark_json_declares_what_run_reports():
    pytest.importorskip("repro")
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        run.per_layer_units())
    assert [w["name"] for w in bench["workloads"]] == list(
        oplist.WORKLOADS)


def test_a_corrupted_summary_counts_as_a_failure():
    repro = pytest.importorskip("repro")
    import lifecycle

    ops = oplist.build("serve-object", 2, 1)
    requests = [r for r in ops.requests if r.program == "fmm"][:3]
    inputs = lifecycle.Inputs()
    small = oplist.OpList(ops.pools, tuple(requests), ())
    refs = lifecycle.reference_answers(small, inputs)
    with repro.Session(workers=1) as session:
        session.compile(inputs.workload("fmm"))
        plain, _ = lifecycle.serve(session, requests, inputs)

    def failures(answers):
        return sum(
            not lifecycle.forest_ok(answers, r.specs, s["summaries"])
            for r, s in zip(requests, plain)
        )

    assert failures(refs) == 0
    victim = requests[1].specs[0]
    corrupted = dict(refs)
    corrupted[(victim, None)] = dict(
        refs[(victim, None)], snapshot_sha="0" * 64)
    assert failures(corrupted) == sum(victim in r.specs for r in requests)
    assert failures(corrupted) >= 1
