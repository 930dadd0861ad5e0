"""Pins of the generated Python: the SHA-256 of every unfused and fused
module the four case studies compile to, under both tree layouts, and
of render's TreeFuser-lowered modules.

Generated source is part of more than one contract: a module's bytecode
unit is keyed on its text (``repro.codegen.python_backend.bytecode_key``),
so any byte of drift orphans every stored unit, and a refactor of the
emission path that should be behaviour-preserving must leave the text
alone. A change that means to alter the generated code updates these
digests in the same commit and says why.
"""

import hashlib

import pytest

from repro.pipeline import CompileOptions, compile as pipeline_compile
from repro.storage import MemoryTier, TieredStore
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

# case -> (workload factory, CompileOptions fields besides the layout)
CASES = {
    "render": (render_workload, {}),
    "astlang": (astlang_workload, {}),
    "kdtree": (kdtree_workload, {}),
    "fmm": (fmm_workload, {}),
    "render-treefuser": (
        render_workload,
        {"mode": "treefuser", "lower": True},
    ),
}

# (case, layout) -> (unfused_source sha256, fused_source sha256)
PINS = {
    ("render", "object"): (
        "8efb5eab9955c969d7c85d5420c934e8bb2628dea9ecb8a189a079a0170c80db",
        "dd32f9e027c889a1a3072b1329b3a59ad08bfdbf10acd12231e183eed72e56d6",
    ),
    ("render", "pooled"): (
        "b1ecaea1cd6e1cf27fe3fa5ebead55d6d5f56c6ff767c7e603d9104c3d33e81d",
        "8cc79b0d5b9e97bac3a40bed036fe4b0ad5c44d33feea9d767a2295e01531830",
    ),
    ("astlang", "object"): (
        "cd5c6484b076a4db993750c4e06b2b06450c073bdadf4858faf25650e9d9bc6b",
        "1a85a1bc3b666943d1821d06e4893ddde123b7237f98ed2b9af25a799b79412b",
    ),
    ("astlang", "pooled"): (
        "4679fbe839f686312f35d33b844a876afcd05bceb2f8347062136d0656bfab91",
        "2974e4d5bf1a189e22279665964a33a12934deb3c71e63ff75ec5b826b00a74a",
    ),
    ("kdtree", "object"): (
        "cac6d91c5a31191e0ca4ad8d9d1303e5a1034c2363a7b2c45c58266f1d384bc7",
        "59234f53ead96d49df06b002453f071c6069224b4d99822c3c744d5feed57c98",
    ),
    ("kdtree", "pooled"): (
        "84904aa75f1aefaf6aa08fe098080a5e37c35030eb910ce14af725be0cb58f1f",
        "94b74ddbb9815197d7926576d22b664d5f63b03a889485042a6cc29fdb6b5c2a",
    ),
    ("fmm", "object"): (
        "ed935fe9e2938859f4982d5f31fb074086c4a1d91452780430a0408f6b3036ea",
        "9153bdc2921f0e639e8bc15de952cd3df337001a5903dddc9cc273eec872e29a",
    ),
    ("fmm", "pooled"): (
        "3f3d9bacd31c5315552b4e5a8125139d768a95f91196aa0f78f75a18126eb3f8",
        "1447cc49c857fbfc62c28665f9a1437cc04ece8c3100f3c8761e546a1abcbae1",
    ),
    ("render-treefuser", "object"): (
        "22c8d213f0f51fc8a1c0fae6d99b3998aa8bc9a9b129e286e02531b7d535d3d0",
        "6a3f5469f338e7460a6f713d33a11a7ccb92a87758ce23152a5da19201f3f919",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload, layout", sorted(PINS))
def test_generated_sources_are_pinned(workload, layout):
    factory, fields = CASES[workload]
    result = pipeline_compile(
        factory(),
        options=CompileOptions(layout=layout, **fields),
        store=TieredStore([MemoryTier()]),
    )
    assert not result.cache_hit
    assert (_sha(result.unfused_source), _sha(result.fused_source)) == (
        PINS[workload, layout]
    )
