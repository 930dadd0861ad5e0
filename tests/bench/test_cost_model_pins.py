"""Pins of the paper's cost model (§5): exact node visits, instructions,
cache misses, modeled cycles and truncations for each case study's
default input, unfused and fused, at the paper tables' cache scale.

The paper tables under ``benchmark_results/`` report ratios of these
numbers; pinning the raw counts here means any change to what the
metered interpreter charges, or to the address trace it feeds the cache
simulator, fails tier-1 instead of surfacing only as a table diff.
"""

import pytest

from repro.bench.runner import compare_treefuser, compare_workload
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

CACHE_SCALE = 64

# (node_visits, instructions, misses, modeled_cycles, truncations)
PINS = {
    "render": {
        "unfused": (770, 10607, (980, 751, 163), 69475, 0),
        "fused": (262, 9322, (372, 167, 163), 44542, 0),
    },
    "astlang": {
        "unfused": (2506, 36432, (2192, 1621, 454), 180764, 48),
        "fused": (1406, 37682, (943, 458, 457), 134942, 48),
    },
    "kdtree": {
        "unfused": (640, 13737, (805, 592, 80), 52773, 0),
        "fused": (127, 11825, (175, 148, 80), 30869, 0),
    },
    "fmm": {
        "unfused": (189, 3148, (261, 181, 72), 22868, 0),
        "fused": (125, 3323, (186, 125, 72), 20575, 0),
    },
    "render-treefuser": {
        "unfused": (770, 60356, (2387, 1803, 485), 217084, 0),
        "fused": (262, 81184, (1113, 525, 485), 186840, 0),
    },
}

FACTORIES = {
    "render": render_workload,
    "astlang": astlang_workload,
    "kdtree": kdtree_workload,
    "fmm": fmm_workload,
}


def _counts(measurement):
    misses = measurement.misses
    return (
        measurement.node_visits,
        measurement.instructions,
        (misses["L1"], misses["L2"], misses["L3"]),
        measurement.modeled_cycles,
        measurement.truncations,
    )


def _assert_pinned(name, result):
    assert _counts(result.unfused) == PINS[name]["unfused"]
    assert _counts(result.fused) == PINS[name]["fused"]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_grafter_cost_model_is_pinned(name):
    workload = FACTORIES[name]()
    result = compare_workload(name, workload, cache_scale=CACHE_SCALE)
    _assert_pinned(name, result)


def test_treefuser_cost_model_is_pinned():
    workload = render_workload()
    spec = workload.spec()
    result = compare_treefuser(
        "render-treefuser",
        workload.source,
        lambda program, heap: workload.build_tree(program, heap, spec),
        workload.globals_map,
        cache_scale=CACHE_SCALE,
    )
    _assert_pinned("render-treefuser", result)
