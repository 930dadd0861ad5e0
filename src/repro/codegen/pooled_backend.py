"""Pooled (structure-of-arrays) Python emission.

The pooled backend compiles the same traversal IR as
:mod:`repro.codegen.python_backend`, but against a
:class:`~repro.layout.pool.ForestPool` instead of a ``Node`` graph:
``this`` is an integer row index, field access is a list subscript on a
per-field column, and dynamic dispatch keys on the pool's integer type
tags. Generated module layout::

    def bind_program(RT, P):
        _t = P.tags
        _tid = P.type_id
        _g = RT.globals
        _p = RT.pure
        _c_Width = P.columns['Width']
        ...
        def m_TextBox_computeWidth(this):
            _c_Width[this] = _c_Text[this].members['Length']
            ...
        _D_computeWidth = {_tid('TextBox'): m_TextBox_computeWidth, ...}
        def run_entry(root): ...
        return {'run_entry': run_entry}

Everything a traversal touches per node is a closure-cell load plus a
list subscript — no attribute lookups, no per-node dicts. The binding
happens once per (runtime context, pool) pair; ``P.new`` appends to the
bound column lists in place, so allocation inside a traversal never
invalidates a binding. The statement compiler, scheduling, and fusion
machinery are shared with the object backend — only the expression
layer (:class:`PooledExprCompiler`) differs; the layout table
(:data:`repro.layout.base.LAYOUTS`) names it, with this module's
assemblers and classes, as the ``"pooled"`` backend.

Fused pooled modules are self-contained: ``bind_fused`` carries the
unfused methods and dispatch tables too (the fused body's fallback
calls need them in the same closure scope), so unlike the object
backend there is no module concatenation.
"""

from __future__ import annotations

import textwrap

from repro.fusion.fused_ir import FusedProgram
from repro.ir.access import AccessPath
from repro.ir.exprs import PureCall
from repro.ir.program import Program
from repro.layout.pool import ForestPool, column_names
from repro.runtime.heap import Heap
from repro.runtime.node import Node
from repro.codegen.python_backend import (
    _PRELUDE,
    ExprCompiler,
    RuntimeContext,
    _CompiledModule,
    _fused_body,
    _module_body,
    _sanitize,
)


def column_locals(program: Program) -> dict[str, str]:
    """Deterministic column-name → bind-local mapping (``Width`` →
    ``_c_Width``), collision-safe under sanitization."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for name in column_names(program):
        local = f"_c_{_sanitize(name)}"
        while local in used:
            local += "_"
        used.add(local)
        mapping[name] = local
    return mapping


class PooledExprCompiler(ExprCompiler):
    """The object expression compiler with every representation touch
    redirected at the pool: columns for tree fields, integer tags for
    dispatch, ``P.new`` for allocation. Locals/globals/opaque members
    keep the object backend's compilation."""

    rt_prefix = ""

    def __init__(self, program: Program, local_prefix: str = ""):
        super().__init__(program, local_prefix)
        self.columns = column_locals(program)

    def pure_call(self, node: PureCall) -> str:
        args = ", ".join(f"_copy({self.expr(a)})" for a in node.args)
        return f"_p[{node.func_name!r}]({args})"

    def _global_text(self, path: AccessPath) -> str:
        if not path.steps:
            return f"_g[{path.base_name!r}]"
        member = path.steps[0].field.name
        return f"_g[{path.base_name!r}].members[{member!r}]"

    def _path_text(self, path: AccessPath) -> str:
        # built inside-out: this.A.W -> _c_W[_c_A[this]]; a member of an
        # opaque value stays an attribute hop off the column read
        text = self.base(path)
        steps = path.steps
        for index, step in enumerate(steps):
            if (
                not step.field.is_child
                and index > 0
                and not steps[index - 1].field.is_child
            ):
                text += f".members[{step.field.name!r}]"
            else:
                text = f"{self.columns[step.field.name]}[{text}]"
        return text

    def receiver_text(self, receiver) -> str:
        if receiver.is_this:
            return "this"
        return f"{self.columns[receiver.child.name]}[this]"

    def new_node(self, type_name: str) -> str:
        return f"P.new({type_name!r})"

    def dispatch_key(self, var: str) -> str:
        return f"_t[{var}]"

    def table_key(self, type_name: str) -> str:
        return f"_tid({type_name!r})"


# ===========================================================================
# emission
# ===========================================================================


def _bind_preamble(program: Program) -> list[str]:
    lines = [
        "    _t = P.tags",
        "    _tid = P.type_id",
        "    _g = RT.globals",
        "    _p = RT.pure",
    ]
    locals_map = column_locals(program)
    for name in column_names(program):
        lines.append(f"    {locals_map[name]} = P.columns[{name!r}]")
    return lines


def assemble_pooled_module(
    program: Program, method_sources: dict[str, str]
) -> str:
    """Stitch pooled per-method sources into the full pooled module."""
    program.finalize()
    exprc = PooledExprCompiler(program)
    lines = [
        f'"""Generated from program {program.name!r} (pooled unfused)."""'
    ]
    lines.append(_PRELUDE)
    lines.append("def bind_program(RT, P):")
    lines.extend(_bind_preamble(program))
    body = "\n".join(_module_body(program, method_sources, exprc))
    lines.append(textwrap.indent(body, "    "))
    lines.append("    return {'run_entry': run_entry}")
    lines.append("")
    return "\n".join(lines)


def assemble_pooled_fused_module(
    fused: FusedProgram,
    method_sources: dict[str, str],
    unit_sources: dict[tuple[str, ...], tuple[str, list[str]]],
) -> str:
    """Stitch pooled method + unit sources into the self-contained
    pooled fused module (unfused tables ride along for fallback calls)."""
    program = fused.program
    program.finalize()
    exprc = PooledExprCompiler(program)
    lines = [
        f'"""Generated from program {program.name!r} (pooled fused)."""'
    ]
    lines.append(_PRELUDE)
    lines.append("def bind_fused(RT, P):")
    lines.extend(_bind_preamble(program))
    body_lines = _module_body(program, method_sources, exprc)
    body_lines.append("")
    body_lines.extend(_fused_body(fused, unit_sources, exprc))
    lines.append(textwrap.indent("\n".join(body_lines), "    "))
    lines.append(
        "    return {'run_entry': run_entry, 'run_fused': run_fused}"
    )
    lines.append("")
    return "\n".join(lines)


# ===========================================================================
# public API
# ===========================================================================


class _PooledRunMixin:
    """The ingest → bind → run → write-back round trip both pooled
    compiled classes share. ``run_entry``/``run_fused`` keep the object
    backend's signatures (the executor never knows which layout ran):
    the tree is serialized into a fresh pool, the traversal runs against
    the columns, and the results are written back into the original
    ``Node`` objects — snapshot- and footprint-identical to an
    object-graph run. Callers that hold a pool already (the batch-reuse
    path) use :meth:`bind` directly and skip the round trip."""

    def bind(self, context: RuntimeContext, pool: ForestPool) -> dict:
        """Bind the generated module to one (runtime, pool) pair;
        returns the entry-point dict the module's bind function built."""
        return self.namespace[self._bind_name](context, pool)

    def _run(self, entry: str, heap: Heap, root: Node, globals_map):
        context = RuntimeContext(self.program, heap, globals_map)
        pool = ForestPool.from_tree(self.program, root)
        self.bind(context, pool)[entry](pool.roots[0])
        pool.write_back(heap)
        return context


class CompiledPooledProgram(_PooledRunMixin, _CompiledModule):
    _bind_name = "bind_program"

    def __init__(self, program: Program, source: str):
        """Wrap assembled source (:func:`assemble_pooled_module`);
        lazy namespace."""
        self.program = program
        self.source = source
        self._namespace = None

    def _module_name(self) -> str:
        return f"<repro:{self.program.name}:pooled>"

    def run_entry(
        self, heap: Heap, root: Node, globals_map=None
    ) -> RuntimeContext:
        return self._run("run_entry", heap, root, globals_map)


class CompiledPooledFused(_PooledRunMixin, _CompiledModule):
    _bind_name = "bind_fused"

    def __init__(self, fused: FusedProgram, source: str):
        """Wrap assembled source (:func:`assemble_pooled_fused_module`);
        lazy namespace."""
        self.fused = fused
        self.program = fused.program
        self.source = source
        self._namespace = None

    def _module_name(self) -> str:
        return f"<repro:{self.program.name}:pooled-fused>"

    def run_entry(
        self, heap: Heap, root: Node, globals_map=None
    ) -> RuntimeContext:
        return self._run("run_entry", heap, root, globals_map)

    def run_fused(
        self, heap: Heap, root: Node, globals_map=None
    ) -> RuntimeContext:
        return self._run("run_fused", heap, root, globals_map)
