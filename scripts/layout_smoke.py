#!/usr/bin/env python
"""End-to-end smoke test of the tree-layout subsystem, cross-process.

One shared artifact store, fresh processes throughout (the CI job
caches the store directory, so consecutive CI runs also exercise the
warm cross-process path):

1. Compile ``examples/fig2.grafter`` under ``--layout object`` and
   ``--layout pooled`` into the *same* store. The pooled compile must
   be **cold** (a warm object store never serves a pooled run — the
   layout participates in every key) and the two emitted fused modules
   must differ (the pooled one carries its ``bind_fused`` closure).
2. Fresh processes recompile both layouts: each must **hit** its own
   entries and re-emit byte-identical modules.
3. Run a render batch under each layout (``repro exec --layout ...``)
   and, in two more fresh processes (one per layout), run one
   identical fused tree of each workload: render, astlang (whose
   traversals allocate rows mid-run, so write-back materializes new
   nodes), kdtree and fmm (floats and opaque values). Per workload the
   two layouts' result summaries (snapshot hash + heap footprint) must
   match exactly.

Exits non-zero on any failure. Run locally with::

    PYTHONPATH=src python scripts/layout_smoke.py [workdir]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap

SOURCE = os.path.join("examples", "fig2.grafter")

_PARITY_CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.pipeline import GLOBAL_CACHE, CompileOptions
    from repro.pipeline import compile as pipeline_compile
    from repro.runtime import Heap
    from repro.service.api import workload_spec
    from repro.service.batching import default_collect
    from repro.storage import TieredStore, disk_tier_for

    layout, cache_dir = sys.argv[1], sys.argv[2]
    store = TieredStore([GLOBAL_CACHE, disk_tier_for(cache_dir)])
    summaries = {}
    for name in sys.argv[3:]:
        workload = workload_spec(name).make_workload()
        result = pipeline_compile(
            workload, options=CompileOptions(layout=layout), store=store
        )
        program = result.program
        heap = Heap(program)
        root = workload.build_tree(program, heap, workload.make_spec())
        result.compiled_fused.run_fused(
            heap, root, dict(workload.globals_map or {})
        )
        summaries[name] = default_collect(program, heap, root)
    print(json.dumps(summaries))
    """
)

PARITY_WORKLOADS = ("render", "astlang", "kdtree", "fmm")


def run(*argv: str) -> str:
    """One CLI/child invocation in a fresh process; returns stdout."""
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"FAIL: {' '.join(argv[:4])} ... exited {proc.returncode}"
        )
    return proc.stdout


def repro(*argv: str) -> str:
    return run("-m", "repro", *argv)


def compile_layout(store: str, layout: str, module_path: str) -> str:
    return repro(
        "compile", SOURCE, "--cache-dir", store,
        "--layout", layout, "--emit-python", module_path,
    )


def main(argv: list[str]) -> int:
    workdir = argv[1] if len(argv) > 1 else tempfile.mkdtemp(
        prefix="repro-layout-smoke-"
    )
    store = os.path.join(workdir, "store")
    modules = {
        name: os.path.join(workdir, f"{name}.py")
        for name in (
            "object-cold", "pooled-cold", "object-warm", "pooled-warm",
        )
    }

    # 1. one store, both layouts; the pooled compile must not be
    # served by the object artifacts that are already in the store.
    # (A CI-cached store makes round one warm — that's the point of
    # the cache — so only the *relative* claim is asserted here: the
    # two layouts never alias.)
    out_object = compile_layout(store, "object", modules["object-cold"])
    out_pooled = compile_layout(store, "pooled", modules["pooled-cold"])
    print(out_object, end="")
    print(out_pooled, end="")
    object_module = open(modules["object-cold"]).read()
    pooled_module = open(modules["pooled-cold"]).read()
    if pooled_module == object_module:
        raise SystemExit(
            "FAIL: pooled compile emitted the object module — the "
            "layouts are aliasing in the store"
        )
    if "def bind_fused(" not in pooled_module:
        raise SystemExit("FAIL: pooled module has no bind_fused closure")
    if "def bind_fused(" in object_module:
        raise SystemExit("FAIL: object module grew a bind_fused closure")
    print("layout_smoke: object and pooled modules differ as required")

    # 2. fresh processes: each layout must hit its own entries and
    # reproduce its module byte for byte
    for layout in ("object", "pooled"):
        out = compile_layout(store, layout, modules[f"{layout}-warm"])
        if "cache hit" not in out:
            print(out)
            raise SystemExit(
                f"FAIL: warm {layout} recompile missed the store"
            )
        cold = open(modules[f"{layout}-cold"]).read()
        warm = open(modules[f"{layout}-warm"]).read()
        if warm != cold:
            raise SystemExit(
                f"FAIL: warm {layout} module is not byte-identical"
            )
    print("layout_smoke: both layouts recompiled warm, byte-identical")

    # 3. batched execution under each layout, then cross-process
    # result parity on one identical fused forest
    for layout in ("object", "pooled"):
        out = repro(
            "exec", "--workload", "render", "--trees", "4",
            "--size", "2", "--layout", layout,
            "--backend", "inline", "--workers", "1",
            "--cache-dir", store,
        )
        print(out, end="")
        if "4 trees executed" not in out:
            raise SystemExit(f"FAIL: {layout} exec did not complete")
    summaries = {
        layout: json.loads(
            run("-c", _PARITY_CHILD, layout, store, *PARITY_WORKLOADS)
        )
        for layout in ("object", "pooled")
    }
    for name in PARITY_WORKLOADS:
        expected = summaries["object"][name]
        pooled = summaries["pooled"][name]
        if pooled != expected:
            raise SystemExit(
                f"FAIL: layouts disagree on the {name} tree: "
                f"{expected} vs {pooled}"
            )
        print(f"layout_smoke: object and pooled runs agree on {name} "
              f"({expected['snapshot_sha'][:12]}..., "
              f"{expected['tree_bytes']} bytes)")
    print("layout_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
