"""CI smoke: the differential fuzzing campaign must find nothing.

Runs the committed seed corpus (``tests/fuzz/seeds.json``) plus a
200-case sweep of consecutive seeds. Each case executes eight ways —
the interpreter running the original and the fused program, and the
fused and unfused compiled modules, under both the object-graph and
forest-pool layouts — and diffs snapshot + final globals + derived
write-set against the interpreter/object baseline.

Any divergence fails the job and prints the minimized replayable repro
(also written to ``fuzz-repro-<seed>.json`` for download), which is the
artifact a fix should commit as a named regression test.

Usage: python scripts/fuzz_smoke.py [cases] [start_seed]
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz import (  # noqa: E402
    LABELS,
    generate_case,
    minimize_case,
    run_case,
    save_repro,
)


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
    for count, seed in enumerate(seeds, 1):
        result = run_case(
            generate_case(seed, max_depth=corpus["max_depth"])
        )
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
        f"{failures} divergence(s)"
    )
    if failures:
        print("FAIL: executions diverged — commit the repro as a "
              "regression test alongside the fix")
        return 1
    print("OK: interpreter, fused, and unfused agree under both layouts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
