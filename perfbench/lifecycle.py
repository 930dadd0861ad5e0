"""The program side of the benchmark: inputs, reference answers, the
serve loop and the cold-start jobs, all through the public ``Session``.

Every job here that runs in a zygote child (``cold_arrival``,
``warm_restart``) is module-level so it pickles by name, takes
``forked_at`` from the zygote, and returns plain data; the parent
checks the returned summaries against the reference answers.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import pkgutil
import time
import traceback

import repro
from repro.frontend import parse_program
from repro.ir.printer import print_program
from repro.runtime import Heap
from repro.service.batching import default_collect
from repro.workloads.astlang import astlang_spec, astlang_workload
from repro.workloads.fmm import fmm_spec, fmm_workload
from repro.workloads.kdtree import kdtree_spec, kdtree_workload
from repro.workloads.render import render_spec, render_workload

import hostclock
import layers as layer_hooks
import oplist

FACTORIES = {
    "render": render_workload,
    "astlang": astlang_workload,
    "kdtree": kdtree_workload,
    "fmm": fmm_workload,
}

SPEC_MAKERS = {
    "render": lambda size, seed: render_spec(pages=size, seed=seed),
    "astlang": lambda size, seed: astlang_spec(functions=size, seed=seed),
    "kdtree": lambda size, seed: kdtree_spec(depth=size, seed=seed),
    "fmm": lambda size, seed: fmm_spec(particles=size, seed=seed),
}

# The seeded edit: one literal inside one traversal, written as the
# printed line before and after. fmm's traversals hold no literal, so
# its edit adds one. The kdtree values end in .5 so that no seed writes
# the literal already there.
EDITS = {
    "render": (
        "this->FontSize = (size - 1);",
        "this->FontSize = (size - {v});",
    ),
    "astlang": (
        "static_cast<AddExpr*>(this->Left)->Right->value = 1;",
        "static_cast<AddExpr*>(this->Left)->Right->value = {v};",
    ),
    "kdtree": (
        "this->C2 = (3.0 * this->C3);",
        "this->C2 = ({v}.5 * this->C3);",
    ),
    "fmm": (
        "this->Potential = ((this->Local * this->Multipole) + "
        "selfInteract(this->P0, this->P1, this->P2, this->P3));",
        "this->Potential = (((this->Local * this->Multipole) + "
        "selfInteract(this->P0, this->P1, this->P2, this->P3)) + {v}.0);",
    ),
}



def import_everything() -> None:
    """Import every repro module up front, so no lazy import lands in a
    timed region and every zygote child starts from the same state."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def edited_workload(workload, program: str, value: int):
    """``workload`` with the seeded one-literal edit applied."""
    anchor, template = EDITS[program]
    original = workload.source
    text = print_program(original)
    if text.count(anchor) != 1:
        raise RuntimeError(f"edit anchor for {program} is not unique")
    impls = {
        name: func.impl
        for name, func in original.pure_functions.items()
        if func.impl is not None
    }
    program_ir = parse_program(
        text.replace(anchor, template.format(v=value)),
        name=original.name,
        pure_impls=impls,
    )
    # the printer drops data-field defaults; without them the edited
    # schema differs and recompile could reuse no compilation unit
    for name, tree_type in program_ir.tree_types.items():
        tree_type.data_defaults.update(
            original.tree_types[name].data_defaults
        )
    return dataclasses.replace(workload, source=program_ir)


class Inputs:
    """Workloads, edited workloads and built tree specs, made once per
    process."""

    def __init__(self):
        self._workloads: dict = {}
        self._edited: dict = {}
        self._trees: dict = {}

    def workload(self, program: str):
        if program not in self._workloads:
            self._workloads[program] = FACTORIES[program]()
        return self._workloads[program]

    def edited(self, program: str, value: int):
        key = (program, value)
        if key not in self._edited:
            self._edited[key] = edited_workload(
                self.workload(program), program, value
            )
        return self._edited[key]

    def trees(self, specs) -> list:
        out = []
        for spec in specs:
            if spec not in self._trees:
                self._trees[spec] = SPEC_MAKERS[spec.program](
                    spec.size, spec.seed
                )
            out.append(self._trees[spec])
        return out


def reference_answers(ops: oplist.OpList, inputs: Inputs) -> dict:
    """``{(spec, edit): summary}`` from the reference interpreter;
    ``edit`` is None for the unedited program."""
    refs: dict = {}
    by_program: dict = {}
    for spec in ops.distinct_specs():
        by_program.setdefault(spec.program, []).append(spec)
    with repro.Session(workers=1) as session:
        for program, specs in by_program.items():
            outcome = session.run(
                inputs.workload(program),
                inputs.trees(specs),
                mode="interpret",
            )
            for spec, summary in zip(specs, outcome.summaries):
                refs[(spec, None)] = summary
        for arrival in ops.arrivals:
            outcome = session.run(
                inputs.edited(arrival.program, arrival.edit),
                inputs.trees(arrival.forest),
                mode="interpret",
            )
            for spec, summary in zip(arrival.forest, outcome.summaries):
                refs[(spec, arrival.edit)] = summary
    return refs


def forest_ok(refs: dict, specs, summaries, edit=None) -> bool:
    """Every summary equals its spec's reference answer."""
    if summaries is None or len(summaries) != len(specs):
        return False
    return all(
        refs.get((spec, edit)) == summary
        for spec, summary in zip(specs, summaries)
    )


# -- serving ----------------------------------------------------------


def start_server(layout: str, inputs: Inputs):
    """A one-worker thread-executor session holding warm artifacts for
    all four programs."""
    session = repro.Session(workers=1, layout=layout)
    for program in oplist.PROGRAMS:
        session.compile(inputs.workload(program))
    return session


def warm_up(session, ops: oplist.OpList, inputs: Inputs) -> None:
    for program in oplist.PROGRAMS:
        pool = ops.pools[program]
        session.run(inputs.workload(program), inputs.trees(pool[:2]))


def _timed_run(session, workload, trees, index, collect=None) -> dict:
    calib = hostclock.calibrate()
    start = time.perf_counter()
    try:
        outcome = session.run(workload, trees, collect=collect)
        summaries, error = outcome.summaries, None
    except Exception:
        summaries, error = None, traceback.format_exc()
    return {
        "index": index,
        "seconds": time.perf_counter() - start,
        "calib_ms": calib,
        "trees": len(trees),
        "summaries": summaries,
        "error": error,
    }


def fused_unfused_seconds(session, workload, trees) -> tuple:
    """The fused and the unfused module of one warm artifact, run on
    freshly built copies of the same trees in alternating order."""
    result = session.compile(workload).result
    program = result.program
    totals = {True: 0.0, False: 0.0}
    for index, spec in enumerate(trees):
        for fused in ((True, False) if index % 2 else (False, True)):
            heap = Heap(program)
            root = workload.build_tree(program, heap, spec)
            start = time.perf_counter()
            if fused:
                result.compiled_fused.run_fused(
                    heap, root, workload.globals_map
                )
            else:
                result.compiled_unfused.run_entry(
                    heap, root, workload.globals_map
                )
            totals[fused] += time.perf_counter() - start
    return totals[True], totals[False]


def serve(session, requests, inputs: Inputs, traced: bool = False):
    """Serve ``requests`` one at a time (a closed loop, one client).

    Returns ``(untraced, traced)`` sample lists; each sample records its
    request's ``index``. A traced serve runs every request with the
    layer wrappers, and every other request also without them, in
    alternating order, and through its fused and unfused modules alone;
    those pairs give the tracing overhead and the fused/unfused ratio.
    """
    plain, hooked = [], []
    hooks = layer_hooks.Layers() if traced else None
    for index, request in enumerate(requests):
        workload = inputs.workload(request.program)
        trees = inputs.trees(request.specs)
        if hooks is None:
            plain.append(_timed_run(session, workload, trees, index))
            continue
        paired = index % 2 == 0
        for with_hooks in ((True, False) if index % 4 else (False, True)):
            if not with_hooks:
                if paired:
                    plain.append(_timed_run(session, workload, trees, index))
                continue
            hooks.install()
            try:
                sample = _timed_run(
                    session,
                    dataclasses.replace(
                        workload,
                        build_tree=hooks.wrap(
                            "runtime.build", workload.build_tree
                        ),
                    ),
                    trees,
                    index,
                    collect=hooks.wrap("service.collect", default_collect),
                )
            finally:
                hooks.uninstall()
            sample["frame"] = hooks.take()
            if paired:
                sample["fused_s"], sample["unfused_s"] = (
                    fused_unfused_seconds(session, workload, trees))
            hooked.append(sample)
    return plain, hooked


# -- cold-start jobs (run in zygote children) --------------------------


def _op(fn, hooks) -> dict:
    """One timed child operation: ``fn`` (which returns a dict of
    results) timed between two host-speed bursts, with the layer frame
    of just that call."""
    if hooks:
        hooks.take()  # drop what untimed work in between recorded
    # collect first: the previous step's garbage differs with its
    # forest, and a collection also makes the pages this child shares
    # with the zygote its own, as they are in a process started afresh
    gc.collect()
    before = hostclock.burst()
    start = time.perf_counter()
    try:
        out = fn()
        seconds = time.perf_counter() - start
        out["error"] = None
    except Exception:
        seconds = time.perf_counter() - start
        out = {"error": traceback.format_exc()}
    out["seconds"] = seconds
    out["frame"] = hooks.take() if hooks else None
    out["probe"] = {"before": before, "after": hostclock.burst()}
    return out


def _pass_timings(result) -> dict:
    return {t.name: t.seconds for t in result.timings}


def _unit_counts(result) -> tuple:
    hits = misses = 0
    for timing in result.timings:
        hits += timing.detail.get("unit_hits", 0)
        misses += timing.detail.get("unit_misses", 0)
    return hits, misses


def cold_arrival(*, forked_at, program, forest, edit, store, traced):
    """Steps 1-3 of an arrival in a never-compiled process: answer the
    first forest interpreted, cold-compile into an empty store, then
    apply the seeded edit and recompile."""
    started = time.perf_counter()
    hooks = layer_hooks.Layers() if traced else None
    if hooks:
        hooks.install()
    inputs = Inputs()
    workload = inputs.workload(program)
    trees = inputs.trees(forest)
    out = {"start_ms": (started - forked_at) * 1e3}
    with repro.Session(cache_dir=store, workers=1) as session:

        def interpret():
            outcome = session.run(workload, trees, mode="interpret")
            return {"summaries": outcome.summaries}

        out["interp"] = _op(interpret, hooks)

        def cold_compile():
            compiled = session.compile(workload)
            return {
                "cache_hit": compiled.cache_hit,
                "passes": _pass_timings(compiled.result),
            }

        out["compile"] = _op(cold_compile, hooks)
        out["compile"]["summaries"] = _checked_run(session, workload, trees)
        edited = inputs.edited(program, edit)

        def recompile():
            compiled = session.recompile(edited)
            hits, misses = _unit_counts(compiled.result)
            return {
                "unit_hits": hits,
                "unit_misses": misses,
                "passes": _pass_timings(compiled.result),
            }

        out["recompile"] = _op(recompile, hooks)
        out["recompile"]["summaries"] = _checked_run(session, edited, trees)
    return out


def _checked_run(session, workload, trees):
    try:
        return session.run(workload, trees).summaries
    except Exception:
        return None


def warm_restart(*, forked_at, program, forest, store, requests, traced):
    """Step 4: a process with nothing in memory restarts against the
    arrival's store and serves its first compiled forest (paying the
    deferred module exec), then the arrival's follow-up requests."""
    started = time.perf_counter()
    hooks = layer_hooks.Layers() if traced else None
    if hooks:
        hooks.install()
    inputs = Inputs()
    workload = inputs.workload(program)
    trees = inputs.trees(forest)
    out = {"start_ms": (started - forked_at) * 1e3}
    with repro.Session(cache_dir=store, workers=1) as session:

        def restart():
            compiled = session.compile(workload)
            outcome = session.run(workload, trees)
            return {
                "cache_hit": compiled.cache_hit,
                "summaries": outcome.summaries,
            }

        out["warm"] = _op(restart, hooks)
        if hooks:
            hooks.uninstall()
        out["plain"], out["hooked"] = serve(
            session, requests, inputs, traced=traced
        )
    return out


# -- set-up ------------------------------------------------------------


def prepare(workload: str, seed: int, seconds: int, clock):
    """Everything before the first timed operation, each step timed by
    ``clock``: the operation list, the inputs, the reference answers,
    and for serve workloads the compiled, warmed-up server."""
    ops = clock.step("oplist", oplist.build, workload, seed, seconds)
    inputs = Inputs()

    def build_inputs():
        for program in oplist.PROGRAMS:
            inputs.workload(program)
        inputs.trees(ops.distinct_specs())

    clock.step("inputs", build_inputs)
    refs = clock.step("references", reference_answers, ops, inputs)
    session = None
    if workload.startswith("serve-"):
        layout = workload.split("-", 1)[1]
        session = clock.step("compile", start_server, layout, inputs)
        clock.step("warm-up", warm_up, session, ops, inputs)
    # start the timed list from the same collector state on every seed
    clock.step("collect", gc.collect)
    return ops, inputs, refs, session
