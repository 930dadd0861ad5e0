"""Command-line interface: static operations on Grafter source files,
plus the traversal service.

Usage (also via ``python -m repro``)::

    python -m repro parse   traversals.grafter   # validate + summary
    python -m repro print   traversals.grafter   # pretty-print the IR
    python -m repro fuse    traversals.grafter   # show fused traversals
    python -m repro explain traversals.grafter   # grouping diagnostics
    python -m repro dot     traversals.grafter   # dependence graph (dot)
    python -m repro compile traversals.grafter --timings
                                                # full staged pipeline
    python -m repro exec  --workload render --trees 64 --workers 2
                                                # one-shot batch execution
    python -m repro exec  --workload render --interp
                                                # reference interpreter
                                                # (no compilation)
    python -m repro fuzz  --cases 200           # differential fuzzing:
                                                # interpreter vs fused vs
                                                # unfused, object + pooled
    python -m repro fuzz  --replay repro.json   # replay a saved case
    python -m repro trace render --trees 4      # traced compile+exec:
                                                # span flame summary
                                                # (--out writes Chrome
                                                # trace JSON)
    python -m repro serve --port 8177 --cache-dir ./artifacts
                                                # HTTP traversal service
    python -m repro store gc --cache-dir ./artifacts --pass fusion
                                                # per-pass store GC
    python -m repro compile t.grafter --cache-dir ./mine --peer /mnt/shared
                                                # warm-start from a peer store

All compilation goes through ``repro.pipeline.compile()`` — repeated
invocations of one process (and every library caller in between) share
the content-addressed compile cache; ``--cache-dir`` extends that to an
on-disk artifact store shared *across* processes. ``compile --timings``
prints the per-pass wall-time and IR-size report.

Pure functions referenced by the source are accepted without
implementations; the static pipeline (parsing, analysis, fusion) never
calls them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro import __version__, obs
from repro.analysis.call_automata import AnalysisContext
from repro.analysis.dependence import build_dependence_graph
from repro.errors import ReproError
from repro.frontend import parse_program
from repro.fusion.diagnostics import explain_sequence
from repro.fusion.fused_ir import print_fused_program
from repro.ir.printer import print_program
from repro.ir.validate import LanguageMode
from repro.layout.base import LAYOUT_NAMES
from repro.pipeline import GLOBAL_CACHE, CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.storage import (
    FORMAT_VERSION,
    TieredStore,
    disk_tier_for,
    peer_tier_for,
)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _read_source(arg: str) -> tuple[str, str]:
    """Resolve the ``compile`` command's source argument.

    Accepts a file path, ``-`` for stdin, or inline Grafter source
    (anything containing a brace that is not an existing file). Returns
    ``(source_text, display_name)``.
    """
    import os

    if arg == "-":
        return sys.stdin.read(), "<stdin>"
    if os.path.exists(arg):
        return _read(arg), arg
    if "{" in arg or "\n" in arg:
        return arg, "<inline>"
    raise ReproError(
        f"no such file {arg!r} (pass '-' to read stdin, or inline "
        f"source containing a class declaration)"
    )


def _load(path: str, mode: str):
    return parse_program(_read(path), name=path, mode=LanguageMode(mode))


def _store(args) -> TieredStore:
    """The one store a command compiles through: the process-wide
    memory tier, then ``--cache-dir``, then each ``--peer``."""
    cache_dir = getattr(args, "cache_dir", None)
    return TieredStore(
        [
            GLOBAL_CACHE,
            disk_tier_for(cache_dir) if cache_dir is not None else None,
            *map(peer_tier_for, getattr(args, "peer", None) or ()),
        ]
    )


def _compile(args, emit: bool):
    """Run the staged pipeline on the source named by *args* (a file
    path for every command; also ``-``/inline text for ``compile``)."""
    options = CompileOptions(
        mode=args.mode,
        emit=emit,
        layout=getattr(args, "layout", None) or "object",
    )
    if getattr(args, "flexible_source", False):
        source, name = _read_source(args.file)
    else:
        source, name = _read(args.file), args.file
    args.display_name = name
    # --explain demonstrates per-unit reuse, so it skips the
    # whole-result lookup (which would short-circuit every pass) while
    # keeping the unit layer — the second run of a warm store then
    # reports all-hits instead of "served from cache"
    return pipeline_compile(
        source,
        options=options,
        name=name,
        store=_store(args),
        reuse_result=not getattr(args, "explain", False),
    )


def _entry_members(program):
    if program.root_type_name is None or not program.entry:
        raise ReproError(
            "the source needs a main() with entry calls for this command"
        )
    concrete = program.concrete_subtypes(program.root_type_name)
    if not concrete:
        raise ReproError("entry root type has no concrete subtypes")

    # demonstrate on the concrete root type with the most traversal code
    # (sentinel types resolve to empty bodies and show nothing useful)
    def body_weight(type_name: str) -> int:
        return sum(
            len(program.resolve_method(type_name, call.method_name).body)
            for call in program.entry
        )

    root = max(concrete, key=body_weight)
    return [
        program.resolve_method(root, call.method_name) for call in program.entry
    ]


def cmd_parse(args) -> int:
    program = _load(args.file, args.mode)
    methods = sum(1 for _ in program.all_methods())
    print(f"{args.file}: OK")
    print(f"  tree types: {len(program.tree_types)} "
          f"({', '.join(sorted(program.tree_types))})")
    print(f"  traversal methods: {methods}")
    print(f"  globals: {len(program.globals)}, "
          f"pure functions: {len(program.pure_functions)}")
    if program.entry:
        calls = ", ".join(c.method_name for c in program.entry)
        print(f"  entry: {program.root_type_name} -> {calls}")
    return 0


def cmd_print(args) -> int:
    program = _load(args.file, args.mode)
    print(print_program(program))
    return 0


def cmd_fuse(args) -> int:
    result = _compile(args, emit=False)
    fused = result.fused
    stats = fused.stats()
    print(f"// {stats['units']} fused traversal functions, "
          f"max width {stats['max_width']}, "
          f"{stats['group_calls']} fused call sites")
    print(print_fused_program(fused))
    return 0


def cmd_explain(args) -> int:
    # explain_sequence derives its own grouping diagnostics; it only
    # needs the parsed program, not a full pipeline run
    program = _load(args.file, args.mode)
    members = _entry_members(program)
    explanation = explain_sequence(program, members)
    print(explanation.describe())
    return 0


def cmd_dot(args) -> int:
    program = _load(args.file, args.mode)
    members = _entry_members(program)
    ctx = AnalysisContext(program)
    graph = build_dependence_graph(ctx, members)
    print(graph.to_dot())
    return 0


def cmd_compile(args) -> int:
    if args.emit_python and args.no_emit:
        raise ReproError("--emit-python requires emission; drop --no-emit")
    result = _compile(args, emit=not args.no_emit)
    stats = result.fused.stats()
    if args.emit_python:
        with open(args.emit_python, "w") as handle:
            handle.write(result.fused_source or "")
    if args.json:
        doc = {
            "file": args.display_name,
            "cache_hit": result.cache_hit,
            "source_hash": result.source_hash,
            "fused_units": stats["units"],
            "max_width": stats["max_width"],
            "fused_call_sites": stats["group_calls"],
        }
        if not args.no_emit and result.fused_source is not None:
            doc["generated_lines"] = {
                "unfused": len(result.unfused_source.splitlines()),
                "fused": len(result.fused_source.splitlines()),
            }
        if args.timings:
            doc["timings"] = [
                {
                    "pass": t.name,
                    "seconds": t.seconds,
                    "detail": t.detail,
                }
                for t in result.timings
            ]
        if args.explain:
            doc["unit_summary"] = result.unit_summary()
        print(json.dumps(doc, indent=2))
        return 0
    status = "cache hit" if result.cache_hit else "cold"
    print(f"{args.display_name}: compiled ({status})")
    print(f"  fused units: {stats['units']}, "
          f"max width {stats['max_width']}, "
          f"fused call sites: {stats['group_calls']}")
    # a cached emit=True result can serve a --no-emit run; only report
    # the generated modules when emission was actually requested
    if not args.no_emit and result.fused_source is not None:
        print(f"  generated python: "
              f"{len(result.unfused_source.splitlines())} lines unfused, "
              f"{len(result.fused_source.splitlines())} lines fused")
    if args.emit_python:
        print(f"  fused module written to {args.emit_python}")
    if args.timings:
        print(result.timings_report())
    if args.explain:
        print(result.unit_report())
    return 0


def _workload_spec(name: str):
    from repro.service.api import WORKLOADS

    if name not in WORKLOADS:
        raise ReproError(
            f"unknown workload {name!r}; "
            f"have {', '.join(sorted(WORKLOADS))}"
        )
    return WORKLOADS[name]


def _run(session, spec, trees: int, size, mode: str):
    """One ``Session.run`` forest of a registered workload; a failed
    request exits like every other CLI error."""
    try:
        return session.run(
            spec.workload(), trees, mode=mode, **spec.size_kwargs(size)
        )
    except RuntimeError as error:
        raise ReproError(str(error)) from None


def cmd_exec(args) -> int:
    """One-shot batched execution of a named workload."""
    from repro.api.session import Session

    spec = _workload_spec(args.workload)
    layout = args.layout
    mode = "interpret" if args.interp else "compiled"
    tracing = bool(args.trace_out)
    if tracing:
        obs.enable()
    with Session(
        cache_dir=args.cache_dir,
        peers=tuple(args.peer),
        workers=args.workers,
        backend=args.backend,
        layout=layout,
    ) as session:
        # one root span for the whole invocation: Session.run is
        # synchronous on this thread, so every wave/group/shard span
        # nests under it (shards via the serialized context)
        with obs.span(
            "cli.exec", force=tracing, workload=args.workload
        ) as root:
            trace_id = root.trace_id
            if args.sequential:
                # one request per tree, executed one wave at a time —
                # the single-tree baseline the batched mode is
                # measured against
                outcomes = [
                    _run(session, spec, 1, args.size, mode)
                    for _ in range(args.trees)
                ]
            else:
                outcomes = [
                    _run(session, spec, args.trees, args.size, mode)
                ]
        session_stats = session.stats()
        stats = session_stats["executor"]
        trees = sum(len(outcome) for outcome in outcomes)
        if tracing:
            spans = obs.get_tracer().spans(trace_id)
            obs.write_chrome_trace(spans, args.trace_out)
        batch_mode = "sequential" if args.sequential else "batched"
        if args.json:
            doc = {
                "workload": args.workload,
                "trees": trees,
                "mode": batch_mode,
                "execution": mode,
                "backend": args.backend,
                "workers": args.workers,
                "layout": layout,
                "tree_latency": stats["tree_latency"],
                "shard_latency": stats["shard_latency"],
                "batches": stats["batches"],
                "waves": stats["waves"],
                "completed_requests": stats["completed_requests"],
                "failed_requests": stats["failed_requests"],
            }
            if args.cache_dir:
                doc["store"] = session_stats["store"]
            if tracing:
                doc["trace_id"] = trace_id
                doc["trace_out"] = args.trace_out
            print(json.dumps(doc, indent=2))
            return 0
        layout_note = f", {layout} layout" if layout else ""
        interp_note = ", interpreted" if mode == "interpret" else ""
        print(f"{args.workload}: {trees} trees executed ({batch_mode}, "
              f"{args.workers} workers, {args.backend} backend"
              f"{layout_note}{interp_note})")
        latency = stats["tree_latency"]
        print(f"  tree latency: p50 {latency['p50'] * 1e3:.3f} ms, "
              f"p99 {latency['p99'] * 1e3:.3f} ms")
        print(f"  batches: {stats['batches']}, "
              f"completed requests: {stats['completed_requests']}")
        if args.cache_dir:
            store = session_stats["store"]
            print(f"  store: {store['entries']} entries, "
                  f"{store['loads']} loads, {store['spills']} spills")
        if tracing:
            print(f"  chrome trace ({trace_id}) written to "
                  f"{args.trace_out}")
    return 0


def cmd_trace(args) -> int:
    """Trace one workload end to end (compile + batched execution) and
    print the indented flame summary of every recorded span."""
    from repro.api.session import Session

    spec = _workload_spec(args.workload)
    obs.enable()
    with Session(
        cache_dir=args.cache_dir,
        workers=args.workers,
        backend=args.backend,
        layout=args.layout,
    ) as session:
        with obs.span(
            "cli.trace", force=True, workload=args.workload
        ) as root:
            trace_id = root.trace_id
            _run(
                session,
                spec,
                args.trees,
                args.size,
                "interpret" if args.interp else "compiled",
            )
    spans = obs.get_tracer().spans(trace_id)
    print(f"trace {trace_id}: {len(spans)} spans ({args.workload}, "
          f"{args.trees} trees, {args.backend} backend)")
    print(obs.render_tree(spans))
    if args.out:
        obs.write_chrome_trace(spans, args.out)
        print(f"chrome trace written to {args.out} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        obs.write_jsonl(spans, args.jsonl)
        print(f"span records written to {args.jsonl}")
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing: seeded random programs + trees executed by
    the reference interpreter and all four compiled forms (fused and
    unfused, object and pooled layouts), diffed on snapshot + globals +
    write-set. Exit status 1 on any divergence."""
    from repro.fuzz import (
        generate_case,
        load_repro,
        minimize_case,
        run_case,
        save_repro,
    )

    if args.replay:
        case = load_repro(args.replay)
        result = run_case(case)
        print(result.report())
        return 0 if result.ok else 1
    failures = 0
    for seed in range(args.seed, args.seed + args.cases):
        result = run_case(generate_case(seed, max_depth=args.max_depth))
        if result.ok:
            if args.verbose:
                print(result.report())
            continue
        failures += 1
        small = minimize_case(result.case)
        minimized = run_case(small)
        if minimized.ok:  # shrinking lost the bug; keep the original
            small, minimized = result.case, result
        print(minimized.report())
        out = args.out or f"fuzz-repro-{seed}.json"
        save_repro(small, out)
        print(f"minimized repro written to {out} "
              f"(replay with: repro fuzz --replay {out})")
    print(f"fuzz: {args.cases} cases from seed {args.seed}, "
          f"{failures} divergence(s)")
    return 1 if failures else 0


def cmd_store(args) -> int:
    """Maintenance operations on an on-disk artifact store. A directory
    with no store is an error: maintenance never creates one."""
    import os

    if not os.path.isdir(
        os.path.join(args.cache_dir, f"v{FORMAT_VERSION}")
    ):
        raise ReproError(f"no artifact store at {args.cache_dir}")
    store = disk_tier_for(args.cache_dir)
    if args.store_command == "stats":
        for key, value in store.stats().items():
            print(f"  {key}: {value}")
        return 0
    if args.store_command == "compact":
        summary = store.compact()
        print(
            f"compacted {args.cache_dir}: {summary['removed']} entries "
            f"removed, {summary['reclaimed_bytes']} bytes reclaimed"
        )
        return 0
    # gc
    if (
        args.gc_pass is None
        and args.max_age_seconds is None
        and args.max_bytes is None
    ):
        raise ReproError(
            "store gc needs --pass, --max-age-seconds, and/or --max-bytes"
        )
    summary = store.gc(
        pass_name=args.gc_pass,
        max_age_seconds=args.max_age_seconds,
        max_bytes=args.max_bytes,
    )
    scope = f"pass {args.gc_pass!r}" if args.gc_pass else "whole store"
    print(
        f"gc {args.cache_dir} ({scope}): {summary['removed']} entries "
        f"removed, {summary['reclaimed_bytes']} bytes reclaimed"
    )
    return 0


def cmd_serve(args) -> int:
    """Run the HTTP traversal service until /shutdown or Ctrl-C."""
    from repro.service.api import TraversalService, make_server

    if getattr(args, "trace", False):
        # every sampled /submit then mints a trace (its id comes back
        # in the submit response; spans serve at GET /trace/<id>)
        obs.enable(sample=args.trace_sample)
    service = TraversalService(
        workers=args.workers,
        backend=args.backend,
        cache_dir=args.cache_dir,
        peers=tuple(args.peer or ()),
        layout=getattr(args, "layout", None),
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # the smoke test parses this line to find the ephemeral port
    print(f"repro service listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        service.close()
    print("repro service stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grafter reproduction: traversal fusion for "
                    "heterogeneous trees (PLDI 2019)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--mode",
        choices=["grafter", "treefuser"],
        default="grafter",
        help="language mode: grafter (default) rejects conditional "
             "traversal calls; treefuser allows them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in [
        ("parse", cmd_parse, "validate a source file and print a summary"),
        ("print", cmd_print, "pretty-print the parsed program"),
        ("fuse", cmd_fuse, "synthesize and print the fused traversals"),
        ("explain", cmd_explain, "explain grouping decisions for the entry"),
        ("dot", cmd_dot, "dependence graph of the entry sequence (graphviz)"),
    ]:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("file", help="Grafter source file")
        command.set_defaults(handler=handler)
    compile_cmd = sub.add_parser(
        "compile",
        help="run the full staged pipeline (parse through python emission)",
    )
    compile_cmd.add_argument(
        "file",
        help="Grafter source file, '-' for stdin, or inline source text",
    )
    compile_cmd.set_defaults(flexible_source=True)
    compile_cmd.add_argument(
        "--timings",
        action="store_true",
        help="print the per-pass wall-time and IR-size report",
    )
    compile_cmd.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: one JSON document with the "
             "compile summary (plus timings under --timings and the "
             "unit-reuse summary under --explain)",
    )
    compile_cmd.add_argument(
        "--explain",
        action="store_true",
        help="recompile unit by unit (skipping the whole-result cache) "
             "and print how many compilation units each pass reused",
    )
    compile_cmd.add_argument(
        "--no-emit",
        action="store_true",
        help="stop after fusion (skip python module emission)",
    )
    compile_cmd.add_argument(
        "--emit-python",
        metavar="PATH",
        help="write the generated fused python module to PATH",
    )
    compile_cmd.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist compiled artifacts to DIR (and reuse artifacts "
             "other processes left there)",
    )
    compile_cmd.add_argument(
        "--peer", metavar="STORE", action="append", default=[],
        help="read-only warm store consulted after --cache-dir: a "
             "second store root or a running 'repro serve' base URL "
             "(repeatable; hits are promoted into local tiers; "
             "payloads are pickles — name only peers you trust)",
    )
    compile_cmd.add_argument(
        "--layout", choices=LAYOUT_NAMES, default="object",
        help="tree layout the generated modules run against: object "
             "(node graph, default) or pooled (structure-of-arrays "
             "forest pools); pooled artifacts content-address "
             "separately from object-graph artifacts",
    )
    compile_cmd.set_defaults(handler=cmd_compile)

    store_cmd = sub.add_parser(
        "store",
        help="maintain an on-disk artifact store (gc, stats, compact)",
    )
    store_sub = store_cmd.add_subparsers(
        dest="store_command", required=True
    )
    gc_cmd = store_sub.add_parser(
        "gc",
        help="policy-driven reclamation: drop units by pass and/or "
             "age, or trim to a byte budget",
    )
    gc_cmd.add_argument(
        "--pass", dest="gc_pass", metavar="NAME", default=None,
        help="scope to one pass's unit artifacts (e.g. fusion, emit); "
             "other passes' units and full results stay intact",
    )
    gc_cmd.add_argument(
        "--max-age-seconds", type=float, default=None,
        help="drop entries older than this (0 drops the whole scope)",
    )
    gc_cmd.add_argument(
        "--max-bytes", type=int, default=None,
        help="LRU-trim the scope to this byte target",
    )
    for name, help_text in [
        ("stats", "print the store's entry/byte/counter statistics"),
        ("compact", "drop corrupt/foreign-version/stale-tmp entries"),
    ]:
        store_sub.add_parser(name, help=help_text)
    for store_sub_cmd in (gc_cmd,) + tuple(
        store_sub.choices[name] for name in ("stats", "compact")
    ):
        store_sub_cmd.add_argument(
            "--cache-dir", metavar="DIR", required=True,
            help="artifact store directory to operate on",
        )
        store_sub_cmd.set_defaults(handler=cmd_store)

    def add_service_args(command, workers_default: int):
        command.add_argument(
            "--workers", type=int, default=workers_default,
            help=f"worker pool size (default {workers_default})",
        )
        command.add_argument(
            "--backend", choices=["thread", "process", "inline"],
            default="thread",
            help="worker pool backend (default thread)",
        )
        command.add_argument(
            "--cache-dir", metavar="DIR",
            help="persistent artifact store directory",
        )
        command.add_argument(
            "--peer", metavar="STORE", action="append", default=[],
            help="read-only warm store (root dir or serve URL) "
                 "consulted after the cache dir (repeatable; payloads "
                 "are pickles — name only peers you trust)",
        )

    exec_cmd = sub.add_parser(
        "exec",
        help="execute a named workload forest through the batch executor",
    )
    exec_cmd.add_argument(
        "--workload", default="render",
        help="registered workload name (render, astlang, kdtree, fmm)",
    )
    exec_cmd.add_argument(
        "--trees", type=int, default=8,
        help="forest size (default 8)",
    )
    exec_cmd.add_argument(
        "--size", type=int, default=None,
        help="per-tree size knob (pages for render, functions for "
             "astlang, depth for kdtree, particles for fmm); each "
             "workload has its own default",
    )
    exec_cmd.add_argument(
        "--sequential", action="store_true",
        help="submit one tree at a time instead of one batched forest",
    )
    exec_cmd.add_argument(
        "--layout", choices=LAYOUT_NAMES, default=None,
        help="tree layout the traversals execute against: object (node "
             "graph, default) or pooled (structure-of-arrays forest "
             "pools — trees are serialized into flat columns, run by "
             "row index, and written back). Pooled artifacts "
             "content-address separately from object-graph artifacts: "
             "the layout participates in every compile/cache key, so a "
             "warm object store never silently serves a pooled run (or "
             "vice versa)",
    )
    exec_cmd.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: one JSON document with the "
             "execution and latency summary",
    )
    exec_cmd.add_argument(
        "--interp", action="store_true",
        help="run the reference interpreter instead of compiled code: "
             "zero compile latency, identical results (the fallback "
             "tier for cold programs)",
    )
    exec_cmd.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="trace the run and write a Chrome trace_event JSON file "
             "to PATH (load in chrome://tracing or ui.perfetto.dev)",
    )
    add_service_args(exec_cmd, workers_default=2)
    exec_cmd.set_defaults(handler=cmd_exec)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs/trees run by the "
             "reference interpreter vs all compiled forms",
    )
    fuzz_cmd.add_argument(
        "--cases", type=int, default=50,
        help="number of seeded cases to run (default 50)",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0,
        help="first seed; cases use seed..seed+cases-1 (default 0)",
    )
    fuzz_cmd.add_argument(
        "--max-depth", type=int, default=4,
        help="generated tree depth (default 4)",
    )
    fuzz_cmd.add_argument(
        "--out", metavar="PATH", default=None,
        help="where to write the minimized repro of the first "
             "divergence (default fuzz-repro-<seed>.json)",
    )
    fuzz_cmd.add_argument(
        "--replay", metavar="PATH", default=None,
        help="re-run one saved repro file instead of a campaign",
    )
    fuzz_cmd.add_argument(
        "--verbose", action="store_true",
        help="print every case's outcome, not just divergences",
    )
    fuzz_cmd.set_defaults(handler=cmd_fuzz)

    trace_cmd = sub.add_parser(
        "trace",
        help="trace one workload (compile + execution) and print the "
             "span flame summary",
    )
    trace_cmd.add_argument(
        "workload",
        help="registered workload name (render, astlang, kdtree, fmm)",
    )
    trace_cmd.add_argument(
        "--trees", type=int, default=4,
        help="forest size (default 4)",
    )
    trace_cmd.add_argument(
        "--size", type=int, default=None,
        help="per-tree size knob (same meaning as exec --size)",
    )
    trace_cmd.add_argument(
        "--layout", choices=LAYOUT_NAMES, default=None,
        help="tree layout to execute against",
    )
    trace_cmd.add_argument(
        "--interp", action="store_true",
        help="trace the reference-interpreter tier (interp.* spans) "
             "instead of the compiled path",
    )
    trace_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker pool size (default 1 — serial traces read best)",
    )
    trace_cmd.add_argument(
        "--backend", choices=["thread", "process", "inline"],
        default="inline",
        help="worker pool backend (default inline; process "
             "demonstrates cross-pool span propagation)",
    )
    trace_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent artifact store directory (adds storage-tier "
             "spans for the disk store)",
    )
    trace_cmd.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write Chrome trace_event JSON to PATH",
    )
    trace_cmd.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also write raw span records to PATH, one JSON per line",
    )
    trace_cmd.set_defaults(handler=cmd_trace)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the HTTP traversal service (submit/result/stats)",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8177,
        help="port to listen on; 0 picks a free port (default 8177)",
    )
    serve_cmd.add_argument(
        "--layout", choices=LAYOUT_NAMES, default=None,
        help="default tree layout for submitted requests (a request's "
             "explicit layout field wins); pooled artifacts "
             "content-address separately — no cache cross-hits",
    )
    serve_cmd.add_argument(
        "--trace",
        action="store_true",
        help="enable request tracing: /submit responses carry a "
             "trace_id and GET /trace/<id> serves the spans",
    )
    serve_cmd.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of submits to trace when --trace is on "
             "(default 1.0)",
    )
    add_service_args(serve_cmd, workers_default=2)
    serve_cmd.set_defaults(handler=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader of our output went away (`repro print f | head
        # -1`): stop quietly, with the status of a process SIGPIPE
        # ended, as other command-line tools do. stdout goes to the
        # null device first, or the interpreter's own flush of what is
        # left fails again on the way out.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
