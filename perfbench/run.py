"""Service benchmark for the traversal-fusion compiler and runtime.

    python3 perfbench/run.py --workload serve-object --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see BENCHMARK.json for why each exists):

* ``serve-object`` / ``serve-pooled`` -- one client sends a seeded list
  of ``Session.run`` forests over all four case studies to a one-worker
  thread executor with warm artifacts, object or pooled layout.
* ``cold-start`` -- programs arrive at fresh processes that answer the
  first forest interpreted, cold-compile into an empty store,
  recompile after a seeded one-literal edit, then restart against the
  store and serve.

Every workload measures every end-to-end metric: the serve workloads
also run two rounds of cold-start arrivals, and cold-start serves a
short request list after each restart. ``--seconds`` sizes the fixed
operation list (about that much work on the reference host) rather
than stopping a clock. Every output is checked against the reference
interpreter; a mismatch or an exception is a failed operation. Timings
are scaled to reference host speed (see ``hostclock``); with
``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a separate traced run.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostclock  # noqa: E402
import oplist  # noqa: E402
from zygote import ChildError, Zygote  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = oplist.PROGRAMS

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trees_per_s": "trees/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    **{f"compile_cold_{p}_ms": "ms" for p in PROGRAMS},
    "recompile_ms": "ms",
    "warm_start_ms": "ms",
    "interp_first_result_ms": "ms",
}

SERVE_LAYERS = {
    "runtime.build_ms": "ms",
    "codegen.run_ms": "ms",
    "codegen.fused_unfused_ratio": "ratio",
    "layout.ingest_ms": "ms",
    "layout.writeback_ms": "ms",
    "service.collect_ms": "ms",
    "service.group_ms": "ms",
    "service.lookups_per_request": "count",
    "storage.lookup_ms": "ms",
    "service.overhead_ms": "ms",
}
COMPILE_LAYERS = {
    **{f"pipeline.{name}_ms": "ms" for name in (
        "access-analysis", "dependence", "fusion", "schedule", "emit")},
    "automata.intersects_calls": "count",
    "automata.intersects_ms": "ms",
    "analysis.dependence_graphs": "count",
    "analysis.interferes_calls": "count",
    "storage.put_ms": "ms",
    "storage.unit_writes": "count",
}
ARRIVAL_LAYERS = {
    "storage.load_ms": "ms",
    "codegen.first_run_ms": "ms",
    "pipeline.unit_hit_ratio": "ratio",
    "pipeline.parse_ms": "ms",
    "interp.resolve_ms": "ms",
    "interp.run_ms": "ms",
}
HOST_LAYERS = {
    "host.calib_ms": "ms",
    "host.child_start_ms": "ms",
    **{f"host.raw.{name}": unit for name, unit in END_TO_END.items()
       if name != "peak_rss_mb"},
    "bench.trace_overhead_pct": "%",
}


def per_layer_units() -> dict:
    units = dict(SERVE_LAYERS)
    for name, unit in COMPILE_LAYERS.items():
        for program in PROGRAMS:
            units[f"{name}.{program}"] = unit
    units.update(ARRIVAL_LAYERS)
    units.update(HOST_LAYERS)
    return units


# -- the run ----------------------------------------------------------


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lifecycle

    lifecycle.import_everything()
    return lifecycle


class Run:
    """Executes one workload's operation list and keeps its samples."""

    def __init__(self, args):
        self.args = args
        self.traced = bool(args.trace)
        self.clock = hostclock.StepClock()
        self.clock.add("startup", time.perf_counter() - _STARTED)
        self.lifecycle = self.clock.step("imports", _import_program)
        self.setup_s = self.raw_setup_s = 0.0
        self.arrivals: list = []  # (arrival, cold, warm) per arrival
        self.child_rss_mb: list = []
        self.served: list = []  # (request, sample) untraced
        self.hooked: list = []  # traced twins
        self.child_start_ms: list = []
        self.child_failures = 0

    def execute(self) -> None:
        args = self.args
        workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
        zygote = Zygote()
        try:
            ops, inputs, refs, session = self.lifecycle.prepare(
                args.workload, args.seed, args.seconds, self.clock
            )
            self.ops, self.refs = ops, refs
            self.setup_s = self.clock.scaled_seconds()
            self.raw_setup_s = self.clock.raw_seconds()
            for index, arrival in enumerate(ops.arrivals):
                self._arrival(
                    zygote, arrival, os.path.join(workdir, f"s{index}")
                )
            if session is not None:
                try:
                    plain, hooked = self.lifecycle.serve(
                        session, ops.requests, inputs, traced=self.traced
                    )
                finally:
                    session.close()
                self._add_served(ops.requests, plain, hooked)
        finally:
            zygote.close()
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass  # another run still uses it

    def _job(self, zygote, fn, **kwargs):
        # Start every fresh process with no earlier writes pending: on
        # ext4, publishing 16 small files the way the store does took
        # ~2 ms after a sync and 3-15 ms right after a compile's store
        # writes. Stores are removed only when the run ends, because
        # deleting one between arrivals raised it to 15-25 ms for the
        # rest of the run.
        os.sync()
        try:
            result, rss_mb = zygote.run(fn, traced=self.traced, **kwargs)
        except ChildError as error:
            print(f"child job failed:\n{error}", file=sys.stderr)
            return None
        self.child_rss_mb.append(rss_mb)
        self.child_start_ms.append(result["start_ms"])
        return result

    def _arrival(self, zygote, arrival, store) -> None:
        cold = self._job(
            zygote,
            self.lifecycle.cold_arrival,
            program=arrival.program,
            forest=arrival.forest,
            edit=arrival.edit,
            store=store,
        )
        warm = self._job(
            zygote,
            self.lifecycle.warm_restart,
            program=arrival.program,
            forest=arrival.forest,
            store=store,
            requests=arrival.requests,
        )
        self.arrivals.append((arrival, cold, warm))
        if cold is None:
            self.child_failures += 3
        if warm is None:
            self.child_failures += 1 + len(arrival.requests)
            return
        self._add_served(arrival.requests, warm["plain"], warm["hooked"])

    def _add_served(self, requests, plain, hooked) -> None:
        """Keep served samples with their requests and rolling scale
        factors."""
        for samples, into in ((plain, self.served), (hooked, self.hooked)):
            factors = hostclock.scale_factors(
                [s["calib_ms"] for s in samples])
            for sample, factor in zip(samples, factors):
                sample["factor"] = factor
                into.append((requests[sample["index"]], sample))

    # -- correctness ----------------------------------------------------

    def request_ok(self, request, sample) -> bool:
        return sample["error"] is None and self.lifecycle.forest_ok(
            self.refs, request.specs, sample["summaries"]
        )

    def arrival_ops(self):
        """``(kind, program, scaled_ms, raw_ms, ok, op)`` for every
        arrival step that produced a result; each step is scaled by the
        host probes taken around it."""
        forest_ok = self.lifecycle.forest_ok
        for arrival, cold, warm in self.arrivals:
            forest = arrival.forest
            steps = []
            if cold is not None:
                checks = {
                    "interp": forest_ok(
                        self.refs, forest, cold["interp"].get("summaries")),
                    "compile": not cold["compile"].get("cache_hit", True)
                    and forest_ok(
                        self.refs, forest, cold["compile"]["summaries"]),
                    "recompile": forest_ok(
                        self.refs, forest, cold["recompile"]["summaries"],
                        edit=arrival.edit),
                }
                steps += [(kind, cold[kind], ok)
                          for kind, ok in checks.items()]
            if warm is not None:
                op = warm["warm"]
                ok = op.get("cache_hit", False) and forest_ok(
                    self.refs, forest, op.get("summaries"))
                steps.append(("warm", op, ok))
            for kind, op, ok in steps:
                op["factor"] = hostclock.bracket_factor(**op["probe"])
                ms = op["seconds"] * 1e3
                yield (kind, arrival.program, ms * op["factor"], ms,
                       op["error"] is None and ok, op)

    def all_calibrations(self, arrival_ops) -> list:
        out = [c for b in self.clock.bursts for c in b["loop"]]
        out += [s["calib_ms"] for _, s in self.served + self.hooked]
        for *_, op in arrival_ops:
            for side in op["probe"].values():
                out += side["loop"]
        return out


# -- metrics ------------------------------------------------------------


def _per_program(ops, kind, index) -> dict:
    """Median per program of one arrival step's scaled (index 2) or raw
    (index 3) milliseconds."""
    out = {}
    for program in PROGRAMS:
        values = [op[index] for op in ops
                  if op[0] == kind and op[1] == program]
        if values:
            out[program] = statistics.median(values)
    return out


def served_figures(run: Run, served, raw: bool = False) -> tuple:
    """``(trees_per_s, latencies_ms)`` of ``served``, scaled or raw; a
    failed request serves no trees and takes forever."""
    ok = [run.request_ok(r, s) for r, s in served]
    factor = (lambda s: 1.0) if raw else (lambda s: s["factor"])
    seconds = [s["seconds"] * factor(s) for _, s in served]
    latencies = [
        sec * 1e3 if good else math.inf for sec, good in zip(seconds, ok)
    ]
    trees = sum(s["trees"] for (_, s), good in zip(served, ok) if good)
    return trees / sum(seconds), latencies


def end_to_end(run: Run, arrival_ops, raw: bool = False,
               served=None) -> dict:
    """The twelve end-to-end metrics, scaled (or raw), over ``served``
    (by default the untraced requests)."""
    served = run.served if served is None else served
    trees_per_s, latencies = served_figures(run, served, raw)
    index = 3 if raw else 2
    metrics = {
        "setup_s": run.raw_setup_s if raw else run.setup_s,
        "peak_rss_mb": peak_rss_mb(run),
        "trees_per_s": trees_per_s,
        "request_p50_ms": statistics.median(latencies),
        "request_p95_ms": hostclock.percentile(latencies, 0.95),
    }
    compile_ms = _per_program(arrival_ops, "compile", index)
    for program in PROGRAMS:
        metrics[f"compile_cold_{program}_ms"] = compile_ms[program]
    for name, kind in (
        ("recompile_ms", "recompile"),
        ("warm_start_ms", "warm"),
        ("interp_first_result_ms", "interp"),
    ):
        per_program = _per_program(arrival_ops, kind, index)
        metrics[name] = hostclock.geomean(
            per_program[p] for p in PROGRAMS
        )
    return metrics


def peak_rss_mb(run: Run) -> float:
    if run.args.workload == "cold-start":
        return max(run.child_rss_mb)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve_layers(run: Run) -> dict:
    from layers import calls, seconds as secs

    hooked = run.hooked
    requests = len(hooked)
    trees = sum(s["trees"] for _, s in hooked)
    totals = dict.fromkeys(
        ("build", "run", "ingest", "writeback", "collect", "group",
         "lookup", "overhead"), 0.0
    )
    lookups = 0
    fused = sum(s["fused_s"] for _, s in hooked if "fused_s" in s)
    unfused = sum(s["unfused_s"] for _, s in hooked if "unfused_s" in s)
    for _, sample in hooked:
        frame, f = sample["frame"], sample["factor"]
        part = {
            "build": secs(frame, "runtime.build"),
            "run_fused": secs(frame, "codegen.run_fused"),
            "ingest": secs(frame, "layout.ingest"),
            "writeback": secs(frame, "layout.writeback"),
            "collect": secs(frame, "service.collect"),
            "group": secs(frame, "service.group"),
            "lookup": secs(frame, "service.lookup"),
        }
        part["run"] = part["run_fused"] - part["ingest"] - part["writeback"]
        part["overhead"] = sample["seconds"] - sum(
            part[k] for k in ("build", "run_fused", "collect", "group",
                              "lookup")
        )
        for key in totals:
            totals[key] += part[key] * f
        lookups += calls(frame, "service.lookup")
    per_tree = lambda key: totals[key] * 1e3 / trees  # noqa: E731
    per_request = lambda key: totals[key] * 1e3 / requests  # noqa: E731
    return {
        "runtime.build_ms": per_tree("build"),
        "codegen.run_ms": per_tree("run"),
        "codegen.fused_unfused_ratio": fused / unfused,
        "layout.ingest_ms": per_tree("ingest"),
        "layout.writeback_ms": per_tree("writeback"),
        "service.collect_ms": per_tree("collect"),
        "service.group_ms": per_request("group"),
        "service.lookups_per_request": lookups / requests,
        "storage.lookup_ms": per_request("lookup"),
        "service.overhead_ms": per_request("overhead"),
    }


def arrival_layers(run: Run, arrival_ops) -> dict:
    from layers import calls, seconds as secs

    out = {}
    by = {}
    for kind, program, _, _, _, op in arrival_ops:
        by.setdefault((kind, program), []).append(op)
    for program in PROGRAMS:
        compiles = by.get(("compile", program), [])

        def median(fn):
            return statistics.median(fn(op) for op in compiles)

        for name in ("access-analysis", "dependence", "fusion", "schedule",
                     "emit"):
            out[f"pipeline.{name}_ms.{program}"] = median(
                lambda op: op["passes"][name] * op["factor"] * 1e3
            )
        out[f"automata.intersects_calls.{program}"] = median(
            lambda op: calls(op["frame"], "automata.intersects"))
        out[f"automata.intersects_ms.{program}"] = median(
            lambda op: secs(op["frame"], "automata.intersects")
            * op["factor"] * 1e3)
        out[f"analysis.dependence_graphs.{program}"] = median(
            lambda op: calls(op["frame"], "analysis.dependence_graph"))
        out[f"analysis.interferes_calls.{program}"] = median(
            lambda op: calls(op["frame"], "analysis.interferes"))
        out[f"storage.put_ms.{program}"] = median(
            lambda op: (secs(op["frame"], "storage.put_result")
                        + secs(op["frame"], "storage.put_unit"))
            * op["factor"] * 1e3)
        out[f"storage.unit_writes.{program}"] = median(
            lambda op: calls(op["frame"], "storage.put_unit"))

    def all_of(kind, fn):
        ops = [op for (k, _), group in by.items() if k == kind
               for op in group]
        return statistics.median(fn(op) for op in ops)

    out["storage.load_ms"] = all_of("warm", lambda op: secs(
        op["frame"], "storage.get_result") * op["factor"] * 1e3)
    out["codegen.first_run_ms"] = all_of("warm", lambda op: secs(
        op["frame"], "codegen.run_fused") * op["factor"] * 1e3)
    recompiles = [op for (k, _), group in by.items() if k == "recompile"
                  for op in group]
    hits = sum(op["unit_hits"] for op in recompiles)
    misses = sum(op["unit_misses"] for op in recompiles)
    out["pipeline.unit_hit_ratio"] = hits / (hits + misses)
    out["pipeline.parse_ms"] = all_of("recompile", lambda op: op[
        "passes"].get("parse", 0.0) * op["factor"] * 1e3)
    out["interp.resolve_ms"] = all_of("interp", lambda op: secs(
        op["frame"], "interp.resolve") * op["factor"] * 1e3)
    out["interp.run_ms"] = all_of("interp", lambda op: secs(
        op["frame"], "interp.run") * op["factor"] * 1e3)
    return out


def traced_layers(run: Run, arrival_ops) -> dict:
    metrics = serve_layers(run)
    metrics.update(arrival_layers(run, arrival_ops))
    metrics["host.calib_ms"] = statistics.median(
        run.all_calibrations(arrival_ops))
    metrics["host.child_start_ms"] = statistics.median(run.child_start_ms)
    # Raw trees/s and p50 come from the untraced twins of half the
    # traced requests. p95 needs every request, and the arrival steps
    # ran in children with the wrappers installed, so those raw figures
    # carry the wrappers' cost.
    raw = end_to_end(run, arrival_ops, raw=True, served=run.hooked)
    raw["trees_per_s"], latencies = served_figures(
        run, run.served, raw=True)
    raw["request_p50_ms"] = statistics.median(latencies)
    for name in END_TO_END:
        if name != "peak_rss_mb":
            metrics[f"host.raw.{name}"] = raw[name]
    metrics["bench.trace_overhead_pct"] = trace_overhead_pct(run)
    return metrics


def trace_overhead_pct(run: Run) -> float:
    """Untraced over traced trees/s on the requests served both ways,
    both at reference host speed."""
    paired = {id(r) for r, _ in run.served}

    def trees_per_s(samples):
        chosen = [s for r, s in samples if id(r) in paired]
        return sum(s["trees"] for s in chosen) / sum(
            s["seconds"] * s["factor"] for s in chosen)

    return (trees_per_s(run.served) / trees_per_s(run.hooked) - 1) * 100


# -- reporting ------------------------------------------------------------


def print_layer_table(run: Run, metrics: dict, arrival_ops) -> None:
    request_ms = statistics.median(
        s["seconds"] * s["factor"] * 1e3 for _, s in run.hooked)
    trees_per_request = sum(s["trees"] for _, s in run.hooked) / len(
        run.hooked)
    print(f"\n[{run.args.workload}] serve layers, share of the mean "
          f"traced request ({request_ms:.3f} ms median, "
          f"{trees_per_request:.2f} trees/request)")
    mean_request = sum(
        s["seconds"] * s["factor"] for _, s in run.hooked) * 1e3 / len(
        run.hooked)
    for name, unit in SERVE_LAYERS.items():
        value = metrics[name]
        if unit != "ms":
            print(f"  {name:34s} {value:12.4f} {unit}")
            continue
        per_request = value * (
            trees_per_request if name in PER_TREE else 1.0)
        share = per_request / mean_request * 100
        scope = "per tree" if name in PER_TREE else "per request"
        print(f"  {name:34s} {value:12.4f} ms {scope:12s} {share:6.1f}%")
    print(f"\n[{run.args.workload}] cold compile layers, median per "
          "arrival; share of the cold compile")
    compile_ms = _per_program(arrival_ops, "compile", 2)
    for program in PROGRAMS:
        total = compile_ms[program]
        print(f"  {program} (cold compile {total:.1f} ms)")
        for name, unit in COMPILE_LAYERS.items():
            value = metrics[f"{name}.{program}"]
            if unit == "ms":
                print(f"    {name:32s} {value:12.3f} ms "
                      f"{value / total * 100:6.1f}%")
            else:
                print(f"    {name:32s} {value:12.0f} {unit}")
    print(f"\n[{run.args.workload}] arrival and host layers")
    for name in (*ARRIVAL_LAYERS, *HOST_LAYERS):
        print(f"  {name:34s} {metrics[name]:12.4f}")


PER_TREE = {"runtime.build_ms", "codegen.run_ms", "layout.ingest_ms",
            "layout.writeback_ms", "service.collect_ms"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=oplist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = Run(args)
    run.execute()
    arrival_ops = list(run.arrival_ops())
    served_ok = [run.request_ok(r, s) for r, s in run.served + run.hooked]
    attempted = len(served_ok) + len(arrival_ops) + run.child_failures
    failed = (served_ok.count(False)
              + sum(1 for op in arrival_ops if not op[4])
              + run.child_failures)
    print(f"[{args.workload}] seed {args.seed}: {len(served_ok)} requests, "
          f"{len(run.arrivals)} arrivals, trees repeating a spec in their "
          f"request: {run.ops.repeat_share() * 100:.1f}%")

    if args.trace:
        metrics = traced_layers(run, arrival_ops)
        units = per_layer_units()
        print_layer_table(run, metrics, arrival_ops)
    else:
        metrics = end_to_end(run, arrival_ops)
        raw = end_to_end(run, arrival_ops, raw=True)
        units = END_TO_END
        calib = statistics.median(run.all_calibrations(arrival_ops))
        print(f"host calibration median {calib:.4f}"
              f" ms (reference {hostclock.REF_CALIB_MS} ms)")
        for name, unit in units.items():
            print(f"  {name:28s} {metrics[name]:14.4f} {unit:8s} "
                  f"raw {raw[name]:14.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
