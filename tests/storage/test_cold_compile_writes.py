"""How many units and files a cold compile writes into an empty store.

Counts, not a timing gate: per case study, the units each persisting
pass spills (dependence, fusion, emit), read through the store's pack
index, and the files on disk: one pack per pass plus the one result
file. The dependence pass spills one structure per entry sequence; the
structures the fusion pass builds for the other sequences stay in the
memory tier, because the plan unit it writes for each of them already
embeds the same edges. A new file per unit anywhere, or a pass that
writes more than one pack, shows up here as a changed count.
"""

import pytest

from repro.pipeline import compile as pipeline_compile
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

from tests.fixtures import fresh_store, stored

FACTORIES = {
    "render": render_workload,
    "astlang": astlang_workload,
    "kdtree": kdtree_workload,
    "fmm": fmm_workload,
}

# workload -> (dependence, fusion, emit) units
UNITS = {
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
    held = stored(tmp_path)
    units = tuple(
        len(held.get(name, ())) for name in ("dependence", "fusion", "emit")
    )
    files = sum(1 for path in tmp_path.rglob("*") if path.is_file())
    assert (units, len(held["result"]), files) == (UNITS[workload], 1, 4)
