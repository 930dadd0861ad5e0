"""Pins the per-tree summary that served requests return.

``default_collect`` digests a tree as the SHA-256 of
``repr(root.snapshot(program))``. Stored answers, the benchmark's
reference answers and ``scripts/layout_smoke.py`` all compare these
digests, so the text must not change however the digest is computed.
The literal values below were computed before the digest was streamed:
two fixed specs per workload after a fused run, under both layouts.
"""

import hashlib
import json
import pathlib

import pytest

import repro
from repro.frontend import parse_program
from repro.fuzz import generate_case
from repro.fuzz.generators import build_tree_from_dict
from repro.interp import InterpretedModule
from repro.runtime.heap import Heap
from repro.service.batching import default_collect
from repro.workloads.astlang import astlang_spec, astlang_workload
from repro.workloads.fmm import fmm_spec, fmm_workload
from repro.workloads.kdtree import kdtree_spec, kdtree_workload
from repro.workloads.render import render_spec, render_workload

CASES = {
    "render": (
        render_workload,
        [render_spec(pages=2, seed=1), render_spec(pages=5, seed=9)],
        [
            ("fac799e585c76ad6b2c956247873529334811486b4946d0251e82b1e9f9f71ba",
             5200),
            ("6c94a566e04bcb83e7ad73519cf938cb186a69c058ceab1954b7988b0d83ff4b",
             12928),
        ],
    ),
    "astlang": (
        astlang_workload,
        [astlang_spec(functions=4, seed=2), astlang_spec(functions=9, seed=5)],
        [
            ("5933768ef1eee112679209c3786a2e8df277ba3557a19849764196be6b9e3c65",
             9760),
            ("678869e11bd4fd5af3e041299b49badfdc9619770529da6a99cb52131465a51e",
             21920),
        ],
    ),
    "kdtree": (
        kdtree_workload,
        [kdtree_spec(depth=4, seed=3), kdtree_spec(depth=6, seed=11)],
        [
            ("42a5439a587ea4c7ba1d37a66222310b37509e74cddf04ba22640ff986b90a28",
             2544),
            ("5e3d634d0039d7d3a41752e99a42e96766391f2ef8c9df28f8f205d24960f376",
             10224),
        ],
    ),
    "fmm": (
        fmm_workload,
        [fmm_spec(particles=64, seed=4), fmm_spec(particles=150, seed=8)],
        [
            ("4cd254006294a64a0158942e4b2ad464f05de76cd117d4b20b05518b21ccb364",
             2240),
            ("0c6825a8f806df931dace5e0190a00697b732703396b30eb429d8e6224e02c9b",
             7712),
        ],
    ),
}


def _nested_repr_sha(program, root) -> str:
    return hashlib.sha256(
        repr(root.snapshot(program)).encode()
    ).hexdigest()


def _both(program, heap, root):
    """The served summary next to the nested-repr digest of the same
    tree (a thread-backend collector, so a closure is fine)."""
    return default_collect(program, heap, root), _nested_repr_sha(
        program, root
    )


@pytest.mark.parametrize("layout", ["object", "pooled"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_run_digests_are_pinned(name, layout):
    factory, specs, pins = CASES[name]
    with repro.Session(workers=1, layout=layout) as session:
        outcome = session.run(factory(), specs, collect=_both)
    for (summary, nested), (sha, tree_bytes) in zip(
        outcome.summaries, pins
    ):
        assert summary == {"snapshot_sha": sha, "tree_bytes": tree_bytes}
        assert nested == sha


def _corpus_depth() -> int:
    seeds = pathlib.Path(__file__).resolve().parents[1] / "fuzz" / "seeds.json"
    return json.loads(seeds.read_text())["max_depth"]


def test_digest_is_the_nested_repr_on_fuzz_trees():
    depth = _corpus_depth()
    for seed in range(50):
        case = generate_case(seed, max_depth=depth)
        program = parse_program(case.source, name=f"fuzz-{seed}")
        heap = Heap(program)
        root = build_tree_from_dict(program, heap, case.tree)
        try:
            InterpretedModule(program).run_entry(
                heap, root, dict(case.globals_map)
            )
        except Exception:  # noqa: BLE001 - a failed run still leaves a tree
            pass
        summary = default_collect(program, heap, root)
        assert summary["snapshot_sha"] == _nested_repr_sha(program, root), (
            f"seed {seed}"
        )
        assert summary["tree_bytes"] == heap.footprint_bytes
