"""Host-speed calibration and the statistics every metric goes through.

A shared 2-vCPU host drifts by +-15% in pure-Python speed within
seconds, which is wider than any useful regression bound. So just before
each timed operation a fixed ~2 ms loop runs with the garbage collector
off, and each timing is reported at a fixed reference loop time
(``REF_CALIB_MS``): multiplied by ``REF_CALIB_MS`` over a rolling
statistic of the calibrations around it. The statistic is the lower
quartile rather than the median: single loops have a long right tail
(an interrupted loop reads slow), and on a recorded 150 s series of
alternating render/astlang requests the lower quartile cut the spread of
per-240-request medians from 7.5% to 4.9% where the median left it.
The raw timing is kept beside the scaled one.

Longer operations (set-up steps, and cold compiles and warm restarts in
fresh processes) are timed instead between two bursts, one just before
and one just after the operation, and scaled by both. A burst times the
loop and a page-touch probe: a fresh process faults in every page it
touches, which the loop alone does not see. Over five serve-pooled runs
(480 fresh-process operations), scaling by the loop and the page probe
cut the run-to-run spread of the warm-restart and first-interpreted
geometric means from 21-23% raw to 6-7%, against 7-9% for the loop
alone; the probes' weights are equal (``PROBE_WEIGHTS``). Store writes
get no probe of their own: every fresh process starts after a sync (see
``run.py``), and a file-metadata probe taken then did not track the
compiles.

The guard keeps the loop honest: a trace or profile hook, or another
thread running during the loop, would slow the loop itself and make the
program look faster after scaling, so either one is an error.
"""

from __future__ import annotations

import gc
import math
import mmap
import statistics
import sys
import threading
import time

CALIB_ITERS = 16000
REF_CALIB_MS = 2.0
ROLLING_HALF_WIDTH = 8
# Benign neighbours stay far below this: an executor worker finishing
# its previous item uses ~15 us, a just-joined pool thread's exit ~110 us.
# A thread busy on another CPU is charged at scheduler ticks (1-4 ms).
OTHER_THREADS_CPU_LIMIT_S = 500e-6


# bursts: the page probe's reference time, each probe's weight in the
# host index, and the samples a burst takes
REF_PAGES_MS = 5.0
PROBE_WEIGHTS = {"loop": 0.5, "pages": 0.5}
PAGE_PROBE_BYTES = 8 << 20
BURST_LOOPS = 3
BURST_PAGES = 1


class CalibrationError(RuntimeError):
    """The calibration loop could not be timed alone."""


class InsufficientSamples(ValueError):
    """Too few samples lie beyond a requested percentile."""


def calibration_loop(iterations: int = CALIB_ITERS) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFF
    return acc


def _hooks_set() -> bool:
    return any(
        hook() is not None
        for hook in (
            sys.gettrace,
            sys.getprofile,
            threading.gettrace,
            threading.getprofile,
        )
    )


def calibrate() -> float:
    """Time one calibration loop in ms (GC off, guarded).

    Another thread ran during the loop when the process used more CPU
    time than this thread did. The kernel charges a thread that is
    still running on another CPU only at scheduler ticks, so a busy
    thread shows on about half of the loops, and a run calibrates
    hundreds of times."""
    if _hooks_set():
        raise CalibrationError("a trace or profile hook is set")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        process_cpu = time.process_time()
        thread_cpu = time.thread_time()
        start = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - start
        others = (time.process_time() - process_cpu) - (
            time.thread_time() - thread_cpu
        )
    finally:
        if was_enabled:
            gc.enable()
    if others > OTHER_THREADS_CPU_LIMIT_S:
        raise CalibrationError(
            f"other threads used {others * 1e6:.0f} us of CPU during "
            "calibration"
        )
    return elapsed * 1e3


def lower_quartile(values) -> float:
    """The ``(n - 1) // 4``-th smallest value (the minimum below 5)."""
    return sorted(values)[(len(values) - 1) // 4]


def scale_factors(calibs, half_width: int = ROLLING_HALF_WIDTH) -> list:
    """Per-operation factor ``REF_CALIB_MS / lower quartile`` of the
    calibrations within ``half_width`` positions."""
    out = []
    for i in range(len(calibs)):
        window = calibs[max(0, i - half_width): i + half_width + 1]
        out.append(REF_CALIB_MS / lower_quartile(window))
    return out


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile, refused unless at least ``min_beyond``
    samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples leaves {max(0, n - rank)} "
            f"beyond it; {min_beyond} are required"
        )
    return sorted(values)[rank - 1]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class StepClock:
    """Times a sequence of set-up steps between bursts; each step is
    scaled by the bursts on either side of it."""

    def __init__(self):
        self.bursts = [burst()]
        self.steps: dict = {}
        self.scaled = 0.0

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` measured before the latest burst."""
        self.steps[name] = self.steps.get(name, 0.0) + seconds
        self.scaled += seconds * bracket_factor(
            self.bursts[-1], self.bursts[-1])

    def step(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.bursts.append(burst())
        self.steps[name] = self.steps.get(name, 0.0) + seconds
        self.scaled += seconds * bracket_factor(
            self.bursts[-2], self.bursts[-1])
        return result

    def raw_seconds(self) -> float:
        return sum(self.steps.values())

    def scaled_seconds(self) -> float:
        return self.scaled


def page_probe() -> float:
    """ms to fault in ``PAGE_PROBE_BYTES`` of fresh anonymous memory."""
    region = mmap.mmap(-1, PAGE_PROBE_BYTES)
    try:
        start = time.perf_counter()
        for offset in range(0, PAGE_PROBE_BYTES, mmap.PAGESIZE):
            region[offset] = 1
        return (time.perf_counter() - start) * 1e3
    finally:
        region.close()


def burst() -> dict:
    """Loop and page-touch samples taken next to one timed operation."""
    return {
        "loop": [calibrate() for _ in range(BURST_LOOPS)],
        "pages": [page_probe() for _ in range(BURST_PAGES)],
    }


def bracket_factor(before: dict, after: dict) -> float:
    """Scale factor for an operation timed between two bursts: the
    reciprocal of the host index, the weighted geometric mean of each
    probe's lower quartile over its reference time, with the two bursts
    averaged in log."""
    refs = {"loop": REF_CALIB_MS, "pages": REF_PAGES_MS}
    return math.exp(-sum(
        weight * statistics.fmean(
            math.log(lower_quartile(side[name]) / refs[name])
            for side in (before, after))
        for name, weight in PROBE_WEIGHTS.items()))
