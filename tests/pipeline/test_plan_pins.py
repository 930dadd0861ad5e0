"""Pins of the fusion plans: one SHA-256 per program over every planned
sequence's dependence edges and grouping decisions.

For each fused sequence the fusion pass plans, the digest covers its
:class:`~repro.pipeline.stages.DepStructure` (vertex count and edge
list) and its :class:`~repro.pipeline.stages.PlanStructure` (groups and
contraction assignment). A verdict of the dependence test that flips
moves an edge or a grouping, so any change to how summaries are built
or intersected that is not exactly equivalent fails here. The memo
soundness test cannot catch that: both of its sides run the same
summary code.

Programs: the four case studies in Grafter mode, render also lowered
to its TreeFuser twin (its conditional call blocks), and the 20 seeds
of the pinned fuzz corpus. The literals were taken before summary
construction was rewritten; a change that means to alter a plan
updates them in the same commit and says why.
"""

import hashlib
import json
import pathlib

import pytest

from repro.fuzz import generate_case
from repro.pipeline import CompileOptions
from repro.pipeline.manager import PassContext, PassManager
from repro.pipeline.stages import PlanStructure, default_passes
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

FUZZ_CORPUS = json.loads(
    (pathlib.Path(__file__).parents[1] / "fuzz" / "seeds.json").read_text()
)

WORKLOADS = {
    "render": (render_workload, CompileOptions(emit=False)),
    "astlang": (astlang_workload, CompileOptions(emit=False)),
    "kdtree": (kdtree_workload, CompileOptions(emit=False)),
    "fmm": (fmm_workload, CompileOptions(emit=False)),
    "render-treefuser": (
        render_workload,
        CompileOptions(mode="treefuser", lower=True, emit=False),
    ),
}

PINS = {
    "astlang": "50945a2db7837eed9fcad81867066be885ecc0ccea28805d9d6ab0ac9aca8cda",
    "fmm": "241b790d41d4340b4f0d979050d79e6e1c9b86a90a0dbabef96bdfd533fad1aa",
    "kdtree": "3cead510f26ec19390124741691d823aa07fa15d418680c12fd9f1bfdf403182",
    "render": "046db5d812ec7e0d991c8a936b5c1765976b0d5898709def453353baa39b9347",
    "render-treefuser": "f35e9d8e7a37bf438f27486779e69368d7fbf77c79220bae991783c2b8457329",
    "fuzz-0": "e38028924b3d6321d7b4aa32a3991439b3ddb21a335411c0e1c60034193ae454",
    "fuzz-1": "95fa49b357d362ca8051968998216ef2291c4728850ee0ab35d610f493fbf017",
    "fuzz-2": "79747680d92ab38a0b6f2d03693934c5bdbfad50aa3dca31db83e792c0ad0f09",
    "fuzz-3": "27506280dff3c6394b5f881522d7dc855246101b0212a5937f5d5c2137afb788",
    "fuzz-5": "33efa84a4e5ae8077b643c0e86a1d2e3b70650317d6f02e5f6310bc3f698ce19",
    "fuzz-7": "4fca0865e1cde7222c7658e0fde550cda9ef7ca5316d656ba36944be49282435",
    "fuzz-11": "d67b59b795dadebe1bf419bc1edb42f866b1b4f601fd9f653258f4de901adc16",
    "fuzz-13": "0b061ecb320bde91f89f9fbda74c7b294442efd028f2eefd10551190bdc92458",
    "fuzz-17": "ff22ba1d7fe510aefdcf10733071e4cb82ddced13702ab2890d3606678c7fc48",
    "fuzz-23": "857ed2ee39d34a75cfc6b04c6db550b520951f6a3d11a0e4622de8041da18b00",
    "fuzz-42": "c00e5ea8b2e526f166897ec0225d6f96eb62e1deceed284057f78b2ba4eea55e",
    "fuzz-99": "ab835b40e9bd2893505b98548257f173ab89c5ee23c9e4cfa8df0a6cb80a5a0a",
    "fuzz-123": "5936d855eab744ca799d39e045fcb933f8d19d5b7c8447af5bc1f73f632f6814",
    "fuzz-256": "c0e34038be3b65c99ba6d3f1d52cee4233fdece8c07bbb5aa58f4686329cf86f",
    "fuzz-512": "bcdb8e3eb33782985f9b7c5b17ad5516163756d8bb3ee6f6a9c1d76a1d26a479",
    "fuzz-765": "3ed7485e719333a00c9fc69a1c0684895cf465eb4ee717b4c792459235bfed31",
    "fuzz-999": "367fbb21b36ae396e3525c2106cffdbdb32c61c45a60b18eef121fc210c1d2a5",
    "fuzz-1234": "f1c858687bdc28e2b9fdac97967bcdd95a5c053609fa21038b7adb33115d57c2",
    "fuzz-4096": "fffa46dd8eb7afc996e8752b9bb37fdcdb4165bc5b8c019b387ee983eda7f6dc",
    "fuzz-9001": "254297eebd42c7159db7e2ec51efecc0752d456d1d95e8d661aa9533d606f36c",
}


def _plans(options: CompileOptions, *, program=None, source_text=None):
    """Run the passes up to fusion with no store; the planner's plans."""
    pctx = PassContext(
        options, program=program, source_text=source_text, store=None
    )
    PassManager(default_passes()).run(pctx)
    return pctx.planner.plans


def _digest(plans) -> str:
    lines = []
    for key in sorted(plans):
        structure = PlanStructure.of(plans[key])
        lines.append(
            repr(
                (
                    key,
                    structure.dep.vertex_count,
                    structure.dep.edges,
                    structure.groups,
                    sorted(structure.assignment.items()),
                )
            )
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_plans_are_pinned(name):
    factory, options = WORKLOADS[name]
    plans = _plans(options, program=factory().source)
    assert plans
    assert _digest(plans) == PINS[name]


@pytest.mark.parametrize("seed", FUZZ_CORPUS["seeds"])
def test_fuzz_corpus_plans_are_pinned(seed):
    case = generate_case(seed, max_depth=FUZZ_CORPUS["max_depth"])
    plans = _plans(CompileOptions(emit=False), source_text=case.source)
    assert plans
    assert _digest(plans) == PINS[f"fuzz-{seed}"]
