#!/usr/bin/env python
"""End-to-end smoke test of the observability layer.

In-process (no server): enables tracing, runs a traced compile +
batched execution of the render workload through ``Session.run``, and
then asserts the three things a trace consumer relies on:

1. the Chrome trace_event export is loadable JSON with one event per
   span;
2. the span tree is connected and covers every layer — the root,
   pipeline passes, storage-tier lookups, and executor dispatch;
3. the Prometheus ``/metrics`` text parses line by line and names the
   pipeline/storage/executor instrument families.

Exits non-zero on any failure. Run locally with::

    PYTHONPATH=src python scripts/trace_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    import repro
    from repro import obs
    from repro.workloads.render import render_workload

    obs.enable()
    with repro.Session(workers=2, backend="thread") as session:
        with obs.span("trace_smoke", force=True) as root:
            trace_id = root.trace_id
            try:
                session.run(render_workload(), 4, pages=2)
            except RuntimeError as error:
                return fail(f"execution failed: {error}")

    spans = obs.get_tracer().spans(trace_id)
    print(f"trace_smoke: trace {trace_id}, {len(spans)} spans")

    # 1. the Chrome export round-trips through a real file
    with tempfile.NamedTemporaryFile(
        "r", suffix=".json", delete=False
    ) as handle:
        obs.write_chrome_trace(spans, handle.name)
        document = json.load(open(handle.name))
    events = document.get("traceEvents", [])
    if len(events) != len(spans):
        return fail(
            f"chrome export has {len(events)} events for "
            f"{len(spans)} spans"
        )
    if not all(e["ph"] == "X" and "ts" in e and "dur" in e
               for e in events):
        return fail("chrome events are not complete ('X') events")
    print(f"trace_smoke: chrome export OK ({len(events)} events)")

    # 2. one connected tree covering pass -> tier -> exec
    ids = {record["span_id"] for record in spans}
    orphans = [
        record["name"] for record in spans
        if record["parent_id"] is not None
        and record["parent_id"] not in ids
    ]
    if orphans:
        return fail(f"unresolvable parents: {orphans}")
    names = {record["name"] for record in spans}
    for required in (
        "trace_smoke", "exec.wave", "exec.group", "exec.shard",
        "pipeline.compile", "pass.fusion", "pass.emit",
        "storage.result",
    ):
        if required not in names:
            return fail(
                f"span {required!r} missing from {sorted(names)}"
            )
    lookups = [r for r in spans if r["name"] == "storage.result"]
    if not all("hit" in r["attrs"] for r in lookups):
        return fail("storage spans lack hit/miss attributes")
    print(
        f"trace_smoke: span tree OK "
        f"({len(names)} distinct span names, "
        f"{len(lookups)} tier lookups)"
    )

    # 3. the metrics exposition parses and names the subsystems
    text = obs.REGISTRY.render_prometheus()
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        float(value)
        samples += 1
    for family in (
        "repro_pass_seconds", "repro_storage_lookups_total",
        "repro_exec_trees_total",
    ):
        if f"# TYPE {family}" not in text:
            return fail(f"metric family {family!r} missing")
    print(f"trace_smoke: metrics OK ({samples} samples)")
    print("trace_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
