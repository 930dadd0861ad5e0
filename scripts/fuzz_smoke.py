"""CI smoke: the differential fuzzing campaign must find nothing.

Runs the committed seed corpus (``tests/fuzz/seeds.json``) plus a
200-case sweep of consecutive seeds. Each case executes eight ways —
the interpreter running the original and the fused program, and the
fused and unfused compiled modules, under both the object-graph and
forest-pool layouts — and diffs snapshot + final globals + derived
write-set against the interpreter/object baseline. Each case's baseline
tree is also digested the way served requests are
(``repro.service.batching.default_collect``), and the digest must be
the SHA-256 of ``repr(root.snapshot(program))``.

Any divergence fails the job and prints the minimized replayable repro
(also written to ``fuzz-repro-<seed>.json`` for download), which is the
artifact a fix should commit as a named regression test. A digest
mismatch fails the job too, naming its seed.

Usage: python scripts/fuzz_smoke.py [cases] [start_seed]
"""

import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.frontend import parse_program  # noqa: E402
from repro.fuzz import (  # noqa: E402
    LABELS,
    generate_case,
    minimize_case,
    run_case,
    save_repro,
)
from repro.fuzz.generators import build_tree_from_dict  # noqa: E402
from repro.interp import InterpretedModule  # noqa: E402
from repro.runtime import Heap  # noqa: E402
from repro.service.batching import default_collect  # noqa: E402


def digest_matches(case) -> bool:
    """The served digest of the case's baseline tree (built, then run
    by the interpreter on the original program) equals the SHA-256 of
    its nested snapshot's repr."""
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
    return summary["snapshot_sha"] == nested.hexdigest()


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
    for count, seed in enumerate(seeds, 1):
        case = generate_case(seed, max_depth=corpus["max_depth"])
        if not digest_matches(case):
            digest_failures.append(seed)
            print(f"seed {seed}: served digest != sha256(repr(snapshot))")
        result = run_case(case)
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
        f"{len(digest_failures)} digest mismatch(es)"
    )
    if failures:
        print("FAIL: executions diverged — commit the repro as a "
              "regression test alongside the fix")
    if digest_failures:
        print(f"FAIL: the served digest differs from the nested-repr "
              f"digest for seeds {digest_failures}")
    if failures or digest_failures:
        return 1
    print("OK: interpreter, fused, and unfused agree under both layouts, "
          "and every served digest is the nested-repr digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
