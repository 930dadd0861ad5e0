"""How many files a cold compile writes into an empty disk store.

A count, not a timing gate: per case study, the unit files each
persisting pass spills (dependence, fusion, emit) and the one result
file. The dependence pass spills one structure per entry sequence; the
structures the fusion pass builds for the other sequences stay in the
memory tier, because the plan unit it writes for each of them already
embeds the same edges. A new file per unit anywhere shows up here as a
changed count.
"""

import pytest

from repro.pipeline import compile as pipeline_compile
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

from tests.fixtures import fresh_store

FACTORIES = {
    "render": render_workload,
    "astlang": astlang_workload,
    "kdtree": kdtree_workload,
    "fmm": fmm_workload,
}

# workload -> (dependence, fusion, emit) unit files
UNIT_FILES = {
    "render": (1, 19, 81),
    "astlang": (1, 78, 134),
    "kdtree": (1, 5, 44),
    "fmm": (1, 5, 14),
}


@pytest.mark.parametrize("workload", sorted(FACTORIES))
def test_cold_compile_file_count(tmp_path, workload):
    result = pipeline_compile(
        FACTORIES[workload](), store=fresh_store(tmp_path)
    )
    assert not result.cache_hit
    root = tmp_path / "v1"
    units = tuple(
        len(list((root / "units" / name).glob("*/*.pkl")))
        for name in ("dependence", "fusion", "emit")
    )
    results = len(list(root.glob("??/*.pkl")))
    files = sum(1 for path in tmp_path.rglob("*") if path.is_file())
    expected = UNIT_FILES[workload]
    assert (units, results, files) == (expected, 1, sum(expected) + 1)
