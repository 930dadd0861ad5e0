#!/usr/bin/env python
"""End-to-end smoke test of the tiered storage stack.

Six processes plus a server over one shared workload
(``examples/fig2.grafter``), then two over the registered ``render``
workload:

1. **Process A** populates a store (``repro compile --cache-dir A``)
   and exports the emitted fused module as the byte-identity baseline.
2. **Process B** compiles *warm through A as a PeerTier*: its own
   empty store plus ``--peer A``, with ``--explain`` so every pass
   demonstrably re-runs unit by unit. The fusion row of the unit
   report must show **zero recomputation** (no misses, every plan
   served), and B's emitted module must be byte-identical to A's.
3. **Process D** does the same through an HTTP peer: ``repro serve
   --cache-dir A`` on an ephemeral port, then a compile with an empty
   store plus ``--peer http://127.0.0.1:<port>`` — the ``/artifact``
   routes end to end, with the same checks — and ``POST /shutdown``.
4. ``repro store gc`` drops A's fusion units (per-pass GC; other
   passes' units and the full results must survive).
5. **Process C** compiles against the gc'd store with ``--explain``:
   fusion recomputes (its units are gone), everything else stays warm,
   and the output is **still byte-identical** — GC can reclaim space
   but can never change what the compiler produces.
6. **Process E** runs ``repro exec --workload render --cache-dir E``:
   a cold compile, and a first run that compiles the fused module's
   source and stores its bytecode. **Process F** runs the same command
   against E's store: its store stats must show that bytecode loaded
   from disk and nothing written, with no failed request.

Exits non-zero on any failure. Run locally with::

    PYTHONPATH=src python scripts/storage_smoke.py [workdir]
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import urllib.request

SOURCE = os.path.join("examples", "fig2.grafter")


def run(*argv: str) -> str:
    """One ``repro`` CLI invocation in a fresh process; returns stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"FAIL: repro {' '.join(argv)} exited "
                         f"{proc.returncode}")
    return proc.stdout


def serve(store: str) -> tuple[subprocess.Popen, str]:
    """``repro serve`` over *store* on an ephemeral port; returns the
    server process and its base URL."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--cache-dir", store,
         "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = server.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    if not match:
        server.kill()
        server.wait()
        raise SystemExit(f"FAIL: unexpected serve banner {line!r}")
    return server, f"http://127.0.0.1:{match.group(1)}"


def check_peer_compile(output: str, module: str, baseline: str,
                       via: str) -> tuple[int, int]:
    """Zero fusion recomputation, a nonzero peer column, and a module
    byte-identical to the baseline; returns (hits, peer hits)."""
    hits, misses, peer = explain_row(output, "fusion")
    if misses != 0 or hits == 0:
        raise SystemExit(
            f"FAIL: expected zero fusion recomputation through the "
            f"{via} peer, got {hits} hits / {misses} misses"
        )
    if peer == 0:
        raise SystemExit(f"FAIL: no fusion unit was served by the {via} "
                         "peer")
    if open(module).read() != baseline:
        raise SystemExit(f"FAIL: {via}-peer-served compile is not "
                         "byte-identical to the baseline")
    return hits, peer


def explain_row(output: str, pass_name: str) -> tuple[int, int, int]:
    """(hits, misses, peer_hits) from one unit-report row."""
    match = re.search(
        rf"^  {pass_name}\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*$",
        output,
        re.MULTILINE,
    )
    if not match:
        print(output)
        raise SystemExit(f"FAIL: no unit-report row for {pass_name!r}")
    _, hits, misses, _, peer = (int(g) for g in match.groups())
    return hits, misses, peer


def exec_render(store: str) -> dict:
    """``repro exec --workload render`` over *store*; its JSON document,
    checked for failed requests."""
    doc = json.loads(run("exec", "--workload", "render", "--cache-dir",
                         store, "--json"))
    if doc["failed_requests"] != 0 or doc["completed_requests"] == 0:
        raise SystemExit(f"FAIL: exec over {store}: {doc}")
    return doc


def check_bytecode_reuse(store: str) -> None:
    """Process E stores the fused module's bytecode; process F, over
    E's store, loads it from disk and writes nothing."""
    exec_render(store)
    units = pathlib.Path(store, "v1", "units", "bytecode")
    stored = sorted(units.rglob("*.pkl"))
    if len(stored) != 1:
        raise SystemExit(
            f"FAIL: E stored {len(stored)} bytecode units, expected the "
            "fused module's one"
        )
    counts = exec_render(store)["store"]
    # F's compile is a whole-result hit, so its one unit load is the
    # fused module's bytecode
    expected = {"loads": 1, "unit_loads": 1, "unit_load_misses": 0,
                "spills": 0, "unit_spills": 0}
    seen = {key: counts[key] for key in expected}
    if seen != expected:
        raise SystemExit(f"FAIL: F's store stats {seen} != {expected}")
    if sorted(units.rglob("*.pkl")) != stored:
        raise SystemExit("FAIL: F changed E's bytecode units")
    print("storage_smoke: F ran E's stored bytecode "
          f"({stored[0].stem[:12]}), compiled and wrote nothing")


def main(argv: list[str]) -> int:
    workdir = argv[1] if len(argv) > 1 else tempfile.mkdtemp(
        prefix="repro-storage-smoke-"
    )
    store_a = os.path.join(workdir, "store-a")
    store_b = os.path.join(workdir, "store-b")
    store_c = os.path.join(workdir, "store-c")
    store_d = os.path.join(workdir, "store-d")
    store_e = os.path.join(workdir, "store-e")
    module_a = os.path.join(workdir, "fused-a.py")
    module_b = os.path.join(workdir, "fused-b.py")
    module_c = os.path.join(workdir, "fused-c.py")
    module_d = os.path.join(workdir, "fused-d.py")

    # 1. process A populates its store and exports the baseline module
    run("compile", SOURCE, "--cache-dir", store_a,
        "--emit-python", module_a)
    print(f"storage_smoke: store A populated at {store_a}")

    # 2. process B: empty local store, A as a read-only peer. --explain
    # bypasses the whole-result cache so the per-pass reuse is visible.
    out_b = run("compile", SOURCE, "--cache-dir", store_b,
                "--peer", store_a, "--explain",
                "--emit-python", module_b)
    print(out_b)
    baseline = open(module_a).read()
    hits, peer = check_peer_compile(out_b, module_b, baseline, "directory")
    print("storage_smoke: B compiled warm through the peer "
          f"(fusion {hits} hits, {peer} from peer, 0 recomputed)")

    # 3. process D: the same through `repro serve --cache-dir A` as an
    # HTTP peer (the /artifact routes end to end)
    server, base = serve(store_a)
    try:
        out_d = run("compile", SOURCE, "--cache-dir", store_d,
                    "--peer", base, "--explain",
                    "--emit-python", module_d)
        print(out_d)
        hits, peer = check_peer_compile(out_d, module_d, baseline, "HTTP")
        print(f"storage_smoke: D compiled warm through {base} "
              f"(fusion {hits} hits, {peer} from peer, 0 recomputed)")
        urllib.request.urlopen(
            urllib.request.Request(
                base + "/shutdown", data=b"{}", method="POST"
            ),
            timeout=30,
        ).close()
        if server.wait(timeout=30) != 0:
            raise SystemExit(f"FAIL: serve exited {server.returncode}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    # 4. per-pass GC on A: fusion units go, everything else stays
    print(run("store", "gc", "--cache-dir", store_a, "--pass", "fusion"),
          end="")
    remaining = [
        str(path) for path in pathlib.Path(store_a).rglob("*.pkl")
    ]
    if any("/units/fusion/" in path for path in remaining):
        raise SystemExit("FAIL: gc left fusion units behind")
    if not any("/units/emit/" in path for path in remaining):
        raise SystemExit("FAIL: gc was not pass-scoped (emit units gone)")

    # 5. process C compiles against the gc'd store: fusion recomputes,
    # output byte-identical
    out_c = run("compile", SOURCE, "--cache-dir", store_c,
                "--peer", store_a, "--explain",
                "--emit-python", module_c)
    print(out_c)
    hits, misses, _ = explain_row(out_c, "fusion")
    if misses == 0:
        raise SystemExit(
            "FAIL: fusion should have recomputed after gc dropped its "
            "units"
        )
    if open(module_c).read() != baseline:
        raise SystemExit("FAIL: post-GC compile is not byte-identical")
    print(f"storage_smoke: post-GC compile recomputed {misses} fusion "
          "units, output byte-identical")

    # 6. processes E and F: a fresh process over a warm store runs the
    # stored bytecode instead of compiling the module's source
    check_bytecode_reuse(store_e)
    print("storage_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
