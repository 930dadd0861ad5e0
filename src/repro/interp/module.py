"""The interpreter packaged like a compiled module.

:class:`InterpretedModule` exposes the compiled backends' external
contract — ``run_entry(heap, root, globals_map) -> RuntimeContext``,
and ``run_fused`` for a module built over a fused program — so the
executor, the session, and the service can treat "interpret" as just
another execution tier: zero compile latency (resolving a program is a
parse, not a pipeline run), identical observable results.

Observability: every run records an ``interp.run`` span (nested under
whatever request trace is active) and bumps the ``repro_interp_*``
registry metrics, keeping the fallback tier inside the same
tracing/metrics layer the compiled path uses.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro import obs
from repro.codegen.python_backend import RuntimeContext
from repro.errors import RuntimeFailure
from repro.fusion.fused_ir import FusedProgram
from repro.interp.machine import Interpreter
from repro.ir.program import Program
from repro.ir.validate import LanguageMode
from repro.runtime.heap import Heap
from repro.runtime.node import Node

_INTERP_RUNS = obs.REGISTRY.counter(
    "repro_interp_runs_total",
    "reference-interpreter entry runs (one per tree)",
    labels=("layout",),
)
_INTERP_WRITES = obs.REGISTRY.counter(
    "repro_interp_writes_total",
    "tree/global writes performed by the reference interpreter",
)
_INTERP_SECONDS = obs.REGISTRY.histogram(
    "repro_interp_run_seconds",
    "per-tree reference-interpreter wall time",
)


def resolve_program(
    source: Union[str, Program],
    *,
    name: str = "program",
    pure_impls: Optional[dict] = None,
    mode: LanguageMode = LanguageMode.GRAFTER,
) -> Program:
    """The interpret tier's whole 'compile': parse (binding pure impls)
    when given source text, finalize when given a built program. No
    analysis, fusion, or emission runs — this is what makes the tier's
    first-request latency negligible."""
    if isinstance(source, Program):
        return source.finalize()
    from repro.frontend import parse_program

    with obs.span("interp.parse", name=name):
        return parse_program(
            source, name=name, pure_impls=pure_impls, mode=mode
        )


class InterpretedModule:
    """A drop-in execution module backed by :class:`Interpreter`.

    Mirrors ``CompiledProgram``/``CompiledPooledProgram`` externally:
    ``run_entry`` takes ``(heap, root, globals_map)`` and returns the
    :class:`RuntimeContext` holding the final globals; with
    ``layout='pooled'`` the tree round-trips through a
    :class:`~repro.layout.pool.ForestPool` (ingest → interpret over
    columns → write back), exactly like the pooled compiled modules.
    ``run_entry`` runs the original semantics, the spec both compiled
    forms must match; given ``fused``, ``run_fused`` runs that fused
    program instead, like ``CompiledFused``.
    """

    def __init__(
        self,
        program: Program,
        layout: str = "object",
        fused: Optional[FusedProgram] = None,
    ):
        # lazy import: the layout table imports this package's views
        from repro.layout.base import layout_backend

        self.program = program.finalize()
        self.layout = layout
        self.fused = fused
        # fail on unknown layout names at construction, not first run
        self._view = layout_backend(layout, RuntimeFailure).view
        self.last_stats: Optional[dict] = None

    def run_entry(
        self, heap: Heap, root: Node, globals_map=None
    ) -> RuntimeContext:
        return self._run(heap, root, globals_map, None)

    def run_fused(
        self, heap: Heap, root: Node, globals_map=None
    ) -> RuntimeContext:
        if self.fused is None:
            raise RuntimeFailure(
                "run_fused needs a module built with a fused program"
            )
        return self._run(heap, root, globals_map, self.fused)

    def _run(self, heap, root, globals_map, fused) -> RuntimeContext:
        context = RuntimeContext(self.program, heap, globals_map)
        start = time.perf_counter()
        with obs.span(
            "interp.run",
            program=self.program.name,
            layout=self.layout,
        ) as span:
            view = self._view(self.program, heap)
            ref = view.ingest(root)
            machine = Interpreter(self.program, view, context.globals)
            if fused is None:
                machine.run_entry(ref)
            else:
                machine.run_fused(fused, ref)
            view.finish()
            span.set(
                node_visits=machine.node_visits,
                truncations=machine.truncations,
                writes=machine.writes,
            )
        seconds = time.perf_counter() - start
        _INTERP_RUNS.labels(layout=self.layout).inc()
        _INTERP_WRITES.inc(machine.writes)
        _INTERP_SECONDS.observe(seconds)
        self.last_stats = {
            "node_visits": machine.node_visits,
            "truncations": machine.truncations,
            "writes": machine.writes,
            "seconds": seconds,
        }
        return context


def interpret_workload(
    workload,
    *,
    layout: str = "object",
    spec=None,
    globals_map: Optional[dict] = None,
    **spec_kwargs,
):
    """Run one workload tree through the reference interpreter.

    Returns ``(program, heap, root, context)`` — the same handles a
    compiled run leaves behind, so callers can snapshot/collect
    identically. ``spec_kwargs`` feed the workload's ``make_spec``
    (``pages=2``, ``depth=4``, ...) when no explicit ``spec`` is given.
    """
    program = resolve_program(
        workload.source,
        name=workload.name,
        pure_impls=dict(workload.pure_impls or {}) or None,
    )
    heap = Heap(program)
    tree_spec = spec if spec is not None else workload.spec(**spec_kwargs)
    root = workload.build_tree(program, heap, tree_spec)
    module = InterpretedModule(program, layout=layout)
    merged_globals = dict(workload.globals_map or {})
    if globals_map:
        merged_globals.update(globals_map)
    context = module.run_entry(heap, root, merged_globals)
    return program, heap, root, context
