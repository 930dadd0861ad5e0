"""Tree layouts: how a program's trees are represented at run time.

Two layouts exist, named by ``CompileOptions(layout=...)``:

* ``"object"`` — the seed representation:
  :class:`~repro.runtime.node.Node` objects whose ``fields`` dicts hold
  children and data directly. Zero ingest cost; every generated access
  is an attribute + dict hop.
* ``"pooled"`` — structure-of-arrays
  :class:`~repro.layout.pool.ForestPool` columns indexed by integer
  rows. Pays one serialization per tree (amortized across a batch via
  :meth:`ForestPool.clone`), then every generated access is a list
  subscript.

:data:`LAYOUTS` is the one place a layout name is turned into code: each
name maps to a :class:`LayoutBackend` holding its code generator
(:mod:`repro.codegen.python_backend`, :mod:`repro.codegen.pooled_backend`),
the storage names that keep its artifacts apart, and its interpreter
view (:mod:`repro.interp.views`). The emit pass, ``pipeline.compile``'s
layout check and :class:`~repro.interp.InterpretedModule` look names up
here; the emit pass is the only code that builds a generated module,
from pieces it emitted or reloaded from the unit store. The knob
participates in the options hash, so pooled and object artifacts
content-address separately in every storage tier.

The package ``__init__`` does not re-export this module: the backends
import :mod:`repro.layout.pool`, so the table is imported by its full
name once they exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.codegen import pooled_backend, python_backend
from repro.codegen.python_backend import emit_method_source, emit_unit_source
from repro.errors import ReproError
from repro.fusion.fused_ir import FusedProgram, FusedUnit
from repro.interp.views import ObjectTreeView, PooledTreeView
from repro.ir.method import TraversalMethod
from repro.ir.program import Program


@dataclass(frozen=True)
class LayoutBackend:
    """Everything one layout name selects.

    * ``exprc`` — the expression compiler the per-method and per-unit
      emitters run under;
    * ``assemble_unfused(program, method_sources)`` and
      ``assemble_fused(fused, method_sources, unit_sources)`` — stitch
      emitted pieces into module source;
    * ``unfused_class(program, source)`` / ``fused_class(fused,
      source)`` — wrap assembled source as a runnable module;
    * ``emit_salt`` — the emit pass's unit-key salt, so the two layouts'
      pieces never alias in the unit store;
    * ``module_prefix`` — prefix of the memory tier's module keys;
    * ``view`` — the interpreter's view class, ``view(program, heap)``.
    """

    exprc: type
    assemble_unfused: Callable[[Program, dict], str]
    assemble_fused: Callable[[FusedProgram, dict, dict], str]
    unfused_class: type
    fused_class: type
    emit_salt: str
    module_prefix: str
    view: type

    def emit_method(self, program: Program, method: TraversalMethod) -> str:
        """Source of one unfused method function."""
        return emit_method_source(program, method, self.exprc)

    def emit_unit(
        self, program: Program, unit: FusedUnit
    ) -> tuple[str, list[str]]:
        """(function source, dispatch-table lines) of one fused unit."""
        return emit_unit_source(program, unit, self.exprc)

    def unfused_module(self, program: Program, method_sources: dict):
        """The unfused module: the emit pass's pieces (keyed by
        qualified method name) → assembler → class. The namespace is
        built on first use."""
        return self.unfused_class(
            program, self.assemble_unfused(program, method_sources)
        )

    def fused_module(
        self, fused: FusedProgram, method_sources: dict, unit_sources: dict
    ):
        """The fused module, built like :meth:`unfused_module`; unit
        pieces are keyed by the unit's sequence key."""
        return self.fused_class(
            fused, self.assemble_fused(fused, method_sources, unit_sources)
        )


#: Every layout, by name: the CLI's ``--layout`` choices are its keys.
LAYOUTS: dict[str, LayoutBackend] = {
    "object": LayoutBackend(
        exprc=python_backend.ExprCompiler,
        assemble_unfused=python_backend.assemble_module,
        assemble_fused=python_backend.assemble_fused_module,
        unfused_class=python_backend.CompiledProgram,
        fused_class=python_backend.CompiledFused,
        emit_salt="emit",
        module_prefix="",
        view=ObjectTreeView,
    ),
    "pooled": LayoutBackend(
        exprc=pooled_backend.PooledExprCompiler,
        assemble_unfused=pooled_backend.assemble_pooled_module,
        assemble_fused=pooled_backend.assemble_pooled_fused_module,
        unfused_class=pooled_backend.CompiledPooledProgram,
        fused_class=pooled_backend.CompiledPooledFused,
        emit_salt="emit:pooled",
        module_prefix="pooled-",
        view=PooledTreeView,
    ),
}

LAYOUT_NAMES = tuple(LAYOUTS)


def layout_backend(name: str, error: type = ReproError) -> LayoutBackend:
    """The backend of layout *name*. An unknown name raises *error*, so
    a typo'd ``--layout`` fails before anything is compiled or cached
    (the interpreter passes its own :class:`~repro.errors.RuntimeFailure`)."""
    backend = LAYOUTS.get(name)
    if backend is None:
        known = ", ".join(LAYOUTS)
        raise error(f"unknown tree layout {name!r} (known layouts: {known})")
    return backend
