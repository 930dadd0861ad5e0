"""CI smoke: the differential fuzzing campaign must find nothing.

Runs the committed seed corpus (``tests/fuzz/seeds.json``) plus a
200-case sweep of consecutive seeds. Each case executes eight ways —
the interpreter running the original and the fused program, and the
fused and unfused compiled modules, under both the object-graph and
forest-pool layouts — and diffs snapshot + final globals + derived
write-set against the interpreter/object baseline. Each case's baseline
tree is also digested the way served requests are
(``repro.service.batching.default_collect``), and the digest must be
the SHA-256 of ``repr(root.snapshot(program))``. That summary must
also survive a pooled round trip with no run in between
(``ForestPool.from_tree``, then ``write_back``).

The harness compiles each case through ``repro.pipeline.compile``, once
per layout, into a store of its own. Each case is then compiled again
per layout with ``reuse_result=False`` through that store under a fresh
memory tier, as a new process over the same store would: every unit
must be served from the store (``plan_from_structure`` replays the
plans, the emitted pieces are reused and assembled anew), and the
printed fused program and both module sources must be byte-identical to
the first compile's. The case's own memory tier is left out of the top
because it also holds the built modules, which would come back as the
same objects instead of being assembled from the pieces.

Any divergence fails the job and prints the minimized replayable repro
(also written to ``fuzz-repro-<seed>.json`` for download), which is the
artifact a fix should commit as a named regression test. A digest,
round-trip or replay mismatch fails the job too, naming its seed.

Usage: python scripts/fuzz_smoke.py [cases] [start_seed]
"""

import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.frontend import parse_program  # noqa: E402
from repro.fusion.fused_ir import print_fused_program  # noqa: E402
from repro.fuzz import (  # noqa: E402
    LABELS,
    generate_case,
    minimize_case,
    run_case,
    save_repro,
)
from repro.fuzz.generators import build_tree_from_dict  # noqa: E402
from repro.interp import InterpretedModule  # noqa: E402
from repro.layout import ForestPool  # noqa: E402
from repro.pipeline import compile as pipeline_compile  # noqa: E402
from repro.runtime import Heap  # noqa: E402
from repro.service.batching import default_collect  # noqa: E402
from repro.storage import MemoryTier, TieredStore  # noqa: E402


def baseline_summaries(case) -> tuple[dict, str, dict]:
    """The served summary of the case's baseline tree (built, then run
    by the interpreter on the original program), the SHA-256 of its
    nested snapshot's repr, and its summary again after a pooled round
    trip with no run: ingest, then write-back."""
    program = parse_program(case.source, name=f"fuzz-{case.seed}")
    heap = Heap(program)
    root = build_tree_from_dict(program, heap, case.tree)
    try:
        InterpretedModule(program).run_entry(
            heap, root, dict(case.globals_map)
        )
    except Exception:  # noqa: BLE001 - a failed run still leaves a tree
        pass
    nested = hashlib.sha256(repr(root.snapshot(program)).encode())
    summary = default_collect(program, heap, root)
    ForestPool.from_tree(program, root).write_back(heap)
    return summary, nested.hexdigest(), default_collect(program, heap, root)


def replay_mismatches(result) -> list[str]:
    """Recompile each of the case's compiles from its store alone (see
    the module docstring); what differs from the first compile, or how
    many units the replay had to recompute, per layout."""
    store = TieredStore([MemoryTier(), *result.store.tiers])
    problems = []
    for layout, first in result.compiles.items():
        try:
            again = pipeline_compile(
                first.program,
                options=first.options,
                store=store,
                reuse_result=False,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"{layout}: {type(exc).__name__}: {exc}")
            continue
        misses = sum(t.detail.get("unit_misses", 0) for t in again.timings)
        if misses:
            problems.append(f"{layout}: {misses} unit(s) recomputed")
        for what, old, new in (
            (
                "fused program",
                print_fused_program(first.fused),
                print_fused_program(again.fused),
            ),
            ("unfused source", first.unfused_source, again.unfused_source),
            ("fused source", first.fused_source, again.fused_source),
        ):
            if old != new:
                problems.append(f"{layout}: {what} differs")
    return problems


def main() -> int:
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    start = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    corpus = json.loads(
        (
            pathlib.Path(__file__).resolve().parent.parent
            / "tests"
            / "fuzz"
            / "seeds.json"
        ).read_text()
    )
    seeds = list(dict.fromkeys(
        corpus["seeds"] + list(range(start, start + cases))
    ))
    print(
        f"fuzz smoke: {len(corpus['seeds'])} corpus seeds + "
        f"{cases} sweep seeds from {start} "
        f"({len(seeds)} unique cases, {len(LABELS)} executions each)"
    )
    began = time.time()
    failures = 0
    digest_failures = []
    round_trip_failures = []
    replay_failures = []
    for count, seed in enumerate(seeds, 1):
        case = generate_case(seed, max_depth=corpus["max_depth"])
        summary, nested, round_tripped = baseline_summaries(case)
        if summary["snapshot_sha"] != nested:
            digest_failures.append(seed)
            print(f"seed {seed}: served digest != sha256(repr(snapshot))")
        if round_tripped != summary:
            round_trip_failures.append(seed)
            print(f"seed {seed}: summary changed by a pooled round trip "
                  f"with no run: {summary} -> {round_tripped}")
        result = run_case(case)
        replay = replay_mismatches(result)
        if replay:
            replay_failures.append(seed)
            print(f"seed {seed}: replay from the store: {'; '.join(replay)}")
        if not result.ok:
            failures += 1
            small = minimize_case(result.case)
            minimized = run_case(small)
            if minimized.ok:
                small, minimized = result.case, result
            print(minimized.report())
            out = f"fuzz-repro-{seed}.json"
            save_repro(small, out)
            print(f"minimized repro written to {out}")
        if count % 50 == 0:
            print(
                f"  {count}/{len(seeds)} cases, {failures} divergences, "
                f"{time.time() - began:.1f}s"
            )
    print(
        f"fuzz smoke: {len(seeds)} cases in {time.time() - began:.1f}s, "
        f"{failures} divergence(s), "
        f"{len(digest_failures)} digest mismatch(es), "
        f"{len(round_trip_failures)} round-trip mismatch(es), "
        f"{len(replay_failures)} replay mismatch(es)"
    )
    if failures:
        print("FAIL: executions diverged — commit the repro as a "
              "regression test alongside the fix")
    if digest_failures:
        print(f"FAIL: the served digest differs from the nested-repr "
              f"digest for seeds {digest_failures}")
    if round_trip_failures:
        print(f"FAIL: a pooled round trip with no run changed the "
              f"summary for seeds {round_trip_failures}")
    if replay_failures:
        print(f"FAIL: a recompile from the store differs from the first "
              f"compile for seeds {replay_failures}")
    if failures or digest_failures or round_trip_failures or replay_failures:
        return 1
    print("OK: interpreter, fused, and unfused agree under both layouts, "
          "every served digest is the nested-repr digest, a pooled "
          "round trip keeps every summary, and a recompile from the "
          "store rebuilds every compile byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
