"""Python emission for traversal programs and fused programs.

Generated module layout (unfused)::

    def m_TextBox_computeWidth(RT, this):
        _f = this.fields
        _D_computeWidth[_f['Next'].type_name](RT, _f['Next'])
        _f['Width'] = _f['Text'].members['Length']
        ...
    _D_computeWidth = {'TextBox': m_TextBox_computeWidth, ...}
    def run_entry(RT, root): ...

Generated module layout (fused)::

    def u__fuse__TextBox_computeWidth__TextBox_computeHeight(RT, this, flags, args):
        if flags & 0b1:
            ...
        cf = 0; ca = []
        ...
        if cf: _G0[child.type_name](RT, child, cf, ca)
    _G0 = {...}
    def run_fused(RT, root): ...

Member truncation (``return;`` under ``active_flags``) compiles to a
``_Trunc`` exception caught at the guarded statement, clearing the
member's bit — truncations are rare, so the exception cost is paid only
when the paper's semantics actually need it.

Modules are built one way, from pieces: :func:`emit_method_source` and
:func:`emit_unit_source` emit one function each, an assembler
(:func:`assemble_module`, :func:`assemble_fused_module`) stitches them,
and the module class wraps the text. The layout table
(:data:`repro.layout.base.LAYOUTS`) names this module's expression
compiler, assemblers and classes as the ``"object"`` backend.

A module's source is compiled to bytecode once per store, not once per
process: the first build looks up the module's ``("bytecode", key)``
unit (:func:`bytecode_key`) in the store that resolved it, and on a
miss compiles the source and publishes ``marshal.dumps`` of the code
object for the next process.
"""

from __future__ import annotations

import functools
import hashlib
import keyword
import marshal
import os
import re
import sys
import threading
import weakref
from importlib.util import MAGIC_NUMBER
from types import CodeType
from typing import Optional

from repro.errors import ReproError
from repro.fusion.fused_ir import (
    FusedProgram,
    FusedUnit,
    GroupCall,
    GuardedStmt,
)
from repro.ir.access import AccessPath
from repro.ir.exprs import BinOp, Const, DataAccess, Expr, PureCall, UnaryOp
from repro.ir.method import TraversalMethod
from repro.ir.program import Program
from repro.ir.stmts import (
    AliasDef,
    Assign,
    Delete,
    If,
    LocalDef,
    New,
    PureStmt,
    Return,
    Stmt,
    TraverseStmt,
    While,
)
from repro.ir.types import is_primitive
from repro.runtime.heap import Heap
from repro.runtime.node import Node
from repro.runtime.values import default_value, initial_globals

_PRELUDE = '''\
from repro.runtime.values import _cxx_div as _div, _cxx_mod as _mod
from repro.runtime.values import copy_value as _copy


class _Trunc(Exception):
    """Member truncation inside a fused unit."""
'''


class _Namer:
    """Collision-free Python identifiers for methods/units/locals."""

    @staticmethod
    def method(method: TraversalMethod) -> str:
        return f"m_{_sanitize(method.owner)}_{_sanitize(method.name)}"

    @staticmethod
    def unit(unit: FusedUnit) -> str:
        return f"u_{_sanitize(unit.label)}"

    @staticmethod
    def local(name: str, prefix: str = "") -> str:
        base = f"{prefix}v_{_sanitize(name)}"
        if keyword.iskeyword(base):  # pragma: no cover - v_ prefix prevents
            base += "_"
        return base


# a character that is neither alphanumeric (str.isalnum) nor "_"
_NON_IDENTIFIER = re.compile(r"\W")


@functools.lru_cache(maxsize=4096)
def _sanitize(text: str) -> str:
    """*text* with every character an identifier cannot hold made
    ``_``. A compile names the same methods and units thousands of
    times, so the results are cached."""
    return _NON_IDENTIFIER.sub("_", text)


class RuntimeContext:
    """What generated code needs at run time: globals, pure functions and
    a node allocator. Deliberately tiny — no metering."""

    def __init__(self, program: Program, heap: Heap, globals_map=None):
        self.program = program
        self.heap = heap
        self.globals = initial_globals(program, globals_map)
        self.pure = {
            name: func for name, func in program.pure_functions.items()
        }

    def new_node(self, type_name: str) -> Node:
        return Node.new(self.program, self.heap, type_name)

    def new_opaque(self, class_name: str):
        return default_value(self.program, class_name)


# ===========================================================================
# expressions
# ===========================================================================


class ExprCompiler:
    #: leading parameter/argument text before ``this``/the receiver in
    #: generated signatures and dispatch calls — the pooled backend's
    #: functions close over their runtime instead of threading it
    rt_prefix = "RT, "

    def __init__(self, program: Program, local_prefix: str = ""):
        self.program = program
        self.prefix = local_prefix

    def expr(self, node: Expr) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, DataAccess):
            return self.read_path(node.path)
        if isinstance(node, BinOp):
            return self._binop(node)
        if isinstance(node, UnaryOp):
            operand = self.expr(node.operand)
            if node.op == "-":
                return f"(-{operand})"
            return f"(not {operand})"
        if isinstance(node, PureCall):
            return self.pure_call(node)
        raise ReproError(f"cannot compile expression {node!r}")

    def pure_call(self, node: PureCall) -> str:
        args = ", ".join(f"_copy({self.expr(a)})" for a in node.args)
        return f"RT.pure[{node.func_name!r}]({args})"

    def _binop(self, node: BinOp) -> str:
        lhs = self.expr(node.lhs)
        rhs = self.expr(node.rhs)
        if node.op == "&&":
            return f"bool({lhs} and {rhs})"
        if node.op == "||":
            return f"bool({lhs} or {rhs})"
        if node.op == "/":
            return f"_div({lhs}, {rhs})"
        if node.op == "%":
            return f"_mod({lhs}, {rhs})"
        return f"({lhs} {node.op} {rhs})"

    # -- paths ----------------------------------------------------------

    def base(self, path: AccessPath) -> str:
        if path.base == "this":
            return "this"
        if path.is_local:
            return _Namer.local(path.base_name, self.prefix)
        raise ReproError(f"path {path} has no node base")

    def _global_text(self, path: AccessPath) -> str:
        if not path.steps:
            return f"RT.globals[{path.base_name!r}]"
        member = path.steps[0].field.name
        return f"RT.globals[{path.base_name!r}].members[{member!r}]"

    def read_path(self, path: AccessPath) -> str:
        if path.is_global:
            return self._global_text(path)
        if path.is_local and not self._local_is_node(path):
            text = _Namer.local(path.base_name, self.prefix)
            for step in path.steps:
                text += f".members[{step.field.name!r}]"
            return text
        return self._path_text(path)

    def _path_text(self, path: AccessPath) -> str:
        text = self.base(path)
        steps = path.steps
        for index, step in enumerate(steps):
            if step.field.is_child:
                text += f".fields[{step.field.name!r}]"
            elif index > 0 and not steps[index - 1].field.is_child:
                # member of an opaque object value
                text += f".members[{step.field.name!r}]"
            else:
                text += f".fields[{step.field.name!r}]"
        return text

    def _local_is_node(self, path: AccessPath) -> bool:
        """Aliases hold nodes; data locals hold values. A path whose first
        step is a child or tree-owned data field came from an alias."""
        if not path.steps:
            return False
        first = path.steps[0].field
        return first.is_child or first.owner in self.program.tree_types

    def write_target(self, path: AccessPath) -> str:
        if path.is_global:
            return self._global_text(path)
        if path.is_local and not self._local_is_node(path):
            text = _Namer.local(path.base_name, self.prefix)
            for step in path.steps:
                text += f".members[{step.field.name!r}]"
            return text
        return self._path_text(path)

    # -- layout hooks ----------------------------------------------------
    # the two places generated code touches the tree *representation*
    # outside a data path: dispatch receivers and node allocation. The
    # pooled backend overrides both; everything else in the statement
    # compiler is layout-agnostic.

    def receiver_text(self, receiver) -> str:
        """The expression a traverse/group call dispatches on: ``this``
        or one child access (shared by the unfused call lines, the fused
        fallback calls, and the group calls)."""
        if receiver.is_this:
            return "this"
        return f"this.fields[{receiver.child.name!r}]"

    def new_node(self, type_name: str) -> str:
        """The allocation expression a ``new`` statement compiles to."""
        return f"RT.new_node({type_name!r})"

    def dispatch_key(self, var: str) -> str:
        """How a dispatch site reads the dynamic type of *var* (a node
        in the object layout, a row index in the pooled layout)."""
        return f"{var}.type_name"

    def table_key(self, type_name: str) -> str:
        """The key expression a dispatch-table literal stores a concrete
        type under — must agree with :meth:`dispatch_key`."""
        return repr(type_name)


# ===========================================================================
# statements
# ===========================================================================


class _StmtCompiler:
    def __init__(
        self,
        program: Program,
        exprc: ExprCompiler,
        call_line,
        return_line: str,
    ):
        self.program = program
        self.exprc = exprc
        self.call_line = call_line  # (stmt: TraverseStmt, pad: str) -> list[str]
        self.return_line = return_line

    def block(self, body: list[Stmt], pad: str) -> list[str]:
        lines: list[str] = []
        for stmt in body:
            lines.extend(self.stmt(stmt, pad))
        if not lines:
            lines.append(f"{pad}pass")
        return lines

    def stmt(self, stmt: Stmt, pad: str) -> list[str]:
        exprc = self.exprc
        if isinstance(stmt, Assign):
            value = exprc.expr(stmt.value)
            if self._assign_copies(stmt):
                value = f"_copy({value})"
            return [f"{pad}{exprc.write_target(stmt.target)} = {value}"]
        if isinstance(stmt, LocalDef):
            name = _Namer.local(stmt.name, exprc.prefix)
            if stmt.init is None:
                if stmt.type_name in self.program.opaque_classes:
                    return [
                        f"{pad}{name} = RT.new_opaque({stmt.type_name!r})"
                    ]
                return [f"{pad}{name} = 0"]
            return [f"{pad}{name} = _copy({exprc.expr(stmt.init)})"]
        if isinstance(stmt, AliasDef):
            name = _Namer.local(stmt.name, exprc.prefix)
            return [f"{pad}{name} = {exprc._path_text(stmt.target)}"]
        if isinstance(stmt, If):
            lines = [f"{pad}if {exprc.expr(stmt.cond)}:"]
            lines.extend(self.block(stmt.then_body, pad + "    "))
            if stmt.else_body:
                lines.append(f"{pad}else:")
                lines.extend(self.block(stmt.else_body, pad + "    "))
            return lines
        if isinstance(stmt, While):
            lines = [f"{pad}while {exprc.expr(stmt.cond)}:"]
            lines.extend(self.block(stmt.body, pad + "    "))
            return lines
        if isinstance(stmt, Return):
            return [f"{pad}{self.return_line}"]
        if isinstance(stmt, New):
            target = exprc._path_text(stmt.target)
            return [f"{pad}{target} = {exprc.new_node(stmt.type_name)}"]
        if isinstance(stmt, Delete):
            target = exprc._path_text(stmt.target)
            return [f"{pad}{target} = None"]
        if isinstance(stmt, PureStmt):
            return [f"{pad}{exprc.expr(stmt.call)}"]
        if isinstance(stmt, TraverseStmt):
            return self.call_line(stmt, pad)
        raise ReproError(f"cannot compile statement {stmt!r}")

    def _assign_copies(self, stmt: Assign) -> bool:
        """Opaque values are copied on assignment (value semantics)."""
        if not stmt.target.steps:
            return True  # whole local/global, may be an object
        last = stmt.target.steps[-1].field
        return not last.is_child and not is_primitive(last.type_name)


# ===========================================================================
# unfused emission
# ===========================================================================


def module_methods(program: Program) -> dict[str, TraversalMethod]:
    """The methods an unfused module emits, keyed by qualified name in
    emission order (declaration order, overrides deduplicated)."""
    method_names: dict[str, TraversalMethod] = {}
    for method in program.all_methods():
        method_names[method.qualified_name] = method
    return method_names


def emit_method_source(
    program: Program, method: TraversalMethod, exprc_factory
) -> str:
    """Python source of one unfused method function — the unfused
    module's per-method compilation unit — under the layout whose
    expression compiler is *exprc_factory*."""
    return "\n".join(_emit_method(program, method, exprc_factory))


def _module_body(
    program: Program, method_sources: dict[str, str], exprc: ExprCompiler
) -> list[str]:
    """The unfused module's body lines at zero indent: method sources,
    dispatch dictionaries, ``run_entry``. Shared between the flat object
    module and the pooled module (which wraps it in a bind function)."""
    lines: list[str] = []
    function_names: dict[str, str] = {}
    for qualified, method in module_methods(program).items():
        lines.append(method_sources[qualified])
        lines.append("")
        function_names[qualified] = _Namer.method(method)
    # dispatch dictionaries per traversal name: type -> function name
    names = {m.name for m in program.all_methods()}
    by_name: dict[str, dict[str, str]] = {}
    for type_name in program.concrete_subtypes_all():
        for name in names:
            if program.has_method(type_name, name):
                target = program.resolve_method(type_name, name)
                by_name.setdefault(name, {})[type_name] = function_names[
                    target.qualified_name
                ]
    for name, table in sorted(by_name.items()):
        entries = ", ".join(
            f"{exprc.table_key(t)}: {function}"
            for t, function in sorted(table.items())
        )
        lines.append(f"_D_{_sanitize(name)} = {{{entries}}}")
    lines.append("")
    lines.append(f"def run_entry({exprc.rt_prefix}root):")
    if program.entry:
        for call in program.entry:
            args = "".join(f", {exprc.expr(a)}" for a in call.args)
            lines.append(
                f"    _D_{_sanitize(call.method_name)}"
                f"[{exprc.dispatch_key('root')}]"
                f"({exprc.rt_prefix}root{args})"
            )
    else:
        lines.append("    pass")
    return lines


def assemble_module(
    program: Program, method_sources: dict[str, str]
) -> str:
    """Stitch per-method sources (:func:`emit_method_source`, keyed by
    qualified name) into the full unfused module. The emit pass calls
    this with a mix of stored and fresh pieces."""
    program.finalize()
    lines = [f'"""Generated from program {program.name!r} (unfused)."""']
    lines.append(_PRELUDE)
    lines.extend(_module_body(program, method_sources, ExprCompiler(program)))
    lines.append("")
    return "\n".join(lines)


def _compiled_args(program, method_owner, method_name, args, exprc) -> str:
    """Render call arguments, copying opaque values (by-value semantics)."""
    target = program.resolve_method(method_owner, method_name)
    rendered = []
    for param, arg in zip(target.params, args):
        text = exprc.expr(arg)
        if not is_primitive(param.type_name):
            text = f"_copy({text})"
        rendered.append(f", {text}")
    return "".join(rendered)


def _emit_method(
    program: Program, method: TraversalMethod, exprc_factory
) -> list[str]:
    exprc = exprc_factory(program)
    params = "".join(
        f", {_Namer.local(p.name)}" for p in method.params
    )
    lines = [
        f"def {_Namer.method(method)}({exprc.rt_prefix}this{params}):"
    ]

    def call_line(stmt: TraverseStmt, pad: str) -> list[str]:
        receiver = exprc.receiver_text(stmt.receiver)
        if stmt.receiver.is_this:
            static_type = method.owner
        else:
            static_type = stmt.receiver.child.type_name
        args = _compiled_args(
            program, static_type, stmt.method_name, stmt.args, exprc
        )
        dispatch = f"_D_{_sanitize(stmt.method_name)}"
        return [
            f"{pad}_r = {receiver}",
            f"{pad}{dispatch}[{exprc.dispatch_key('_r')}]"
            f"({exprc.rt_prefix}_r{args})",
        ]

    compiler = _StmtCompiler(program, exprc, call_line, return_line="return")
    lines.extend(compiler.block(method.body, "    "))
    return lines


# ===========================================================================
# fused emission
# ===========================================================================


def emit_unit_source(
    program: Program, unit: FusedUnit, exprc_factory
) -> tuple[str, list[str]]:
    """(function source, dispatch-table lines) of one fused unit — the
    fused module's per-unit compilation unit. The table lines are
    separate because the module hoists every group's dispatch dict below
    the function definitions (the targets must exist before the dicts
    reference them)."""
    group_tables: list[str] = []
    lines = _emit_unit(program, unit, group_tables, exprc_factory)
    return "\n".join(lines), group_tables


def _fused_body(
    fused: FusedProgram,
    unit_sources: dict[tuple[str, ...], tuple[str, list[str]]],
    exprc: ExprCompiler,
) -> list[str]:
    """The fused module's body lines at zero indent: unit sources, the
    hoisted group dispatch tables, ``run_fused``. Shared between the
    flat object module and the pooled bind function."""
    program = fused.program
    lines: list[str] = []
    group_tables: list[str] = []
    for key in sorted(fused.units):
        text, tables = unit_sources[key]
        lines.append(text)
        lines.append("")
        group_tables.extend(tables)
    lines.extend(group_tables)
    lines.append("")
    lines.append(f"def run_fused({exprc.rt_prefix}root):")
    if not fused.entry_groups:
        lines.append("    pass")
    for index, group in enumerate(fused.entry_groups):
        table = ", ".join(
            f"{exprc.table_key(t)}: {_Namer.unit(u)}"
            for t, u in sorted(group.dispatch.items())
        )
        lines.append(f"    _e = {{{table}}}")
        flat_args = "".join(
            f", {exprc.expr(a)}"
            for args in group.args_per_member
            for a in args
        )
        width = len(group.method_names)
        lines.append(
            f"    _e[{exprc.dispatch_key('root')}]"
            f"({exprc.rt_prefix}root, {(1 << width) - 1}{flat_args})"
        )
    return lines


def assemble_fused_module(
    fused: FusedProgram,
    method_sources: dict[str, str],
    unit_sources: dict[tuple[str, ...], tuple[str, list[str]]],
) -> str:
    """Stitch per-method and per-unit sources (:func:`emit_unit_source`,
    keyed by the unit's sequence key) into the full fused module: the
    whole unfused module first, since fused units fall back to its
    dispatch tables for leftover conditional calls, then the units."""
    program = fused.program
    lines = [assemble_module(program, method_sources)]
    lines.append(f'"""Generated from program {program.name!r} (fused)."""')
    lines.append(_PRELUDE)
    lines.extend(_fused_body(fused, unit_sources, ExprCompiler(program)))
    lines.append("")
    return "\n".join(lines)


def _unit_param_names(unit: FusedUnit) -> list[str]:
    """The flattened member parameters, in member order. Every dispatch
    target of a group shares this layout (overrides keep signatures)."""
    names: list[str] = []
    for member, method in enumerate(unit.members):
        for param in method.params:
            names.append(_Namer.local(param.name, f"m{member}_"))
    return names


def _emit_unit(
    program: Program,
    unit: FusedUnit,
    group_tables: list[str],
    exprc_factory,
) -> list[str]:
    name = _Namer.unit(unit)
    params = "".join(f", {p}=0" for p in _unit_param_names(unit))
    lines = [f"def {name}({exprc_factory.rt_prefix}this, flags{params}):"]
    body_lines: list[str] = []
    group_index = 0
    for item in unit.body:
        if isinstance(item, GuardedStmt):
            body_lines.extend(_emit_guarded(program, item, exprc_factory))
        elif isinstance(item, GroupCall):
            body_lines.extend(
                _emit_group_call(
                    program,
                    unit,
                    item,
                    group_index,
                    group_tables,
                    exprc_factory,
                )
            )
            group_index += 1
    if not body_lines:
        body_lines = ["    pass"]
    lines.extend(body_lines)
    return lines


def _emit_guarded(
    program: Program, item: GuardedStmt, exprc_factory
) -> list[str]:
    prefix = f"m{item.member}_"
    exprc = exprc_factory(program, local_prefix=prefix)

    def call_line(stmt: TraverseStmt, pad: str) -> list[str]:
        # unfusable leftover calls fall back to the unfused dispatch —
        # the generated fused module also carries the plain tables
        raise ReproError(
            "fused units must not contain bare traverse statements; "
            f"got {stmt}"
        )

    # a fresh instance per raise: re-raising one shared instance would
    # chain every raise's traceback onto it, keeping each truncated
    # unit's frame — and the tree, heap and pool it holds — alive
    compiler = _StmtCompiler(
        program, exprc, call_line, return_line="raise _Trunc"
    )
    mask = 1 << item.member
    from repro.ir.stmts import contains_return, contains_traverse

    if contains_traverse(item.stmt):
        # a conditional call block survived ungrouped (TreeFuser mode);
        # compile its calls through the unfused dispatch tables
        def fallback_call(stmt: TraverseStmt, pad: str) -> list[str]:
            exprc_local = compiler.exprc
            args = "".join(f", {exprc_local.expr(a)}" for a in stmt.args)
            receiver = exprc_local.receiver_text(stmt.receiver)
            return [
                f"{pad}_r = {receiver}",
                f"{pad}_D_{_sanitize(stmt.method_name)}"
                f"[{exprc_local.dispatch_key('_r')}]"
                f"({exprc_local.rt_prefix}_r{args})",
            ]

        compiler.call_line = fallback_call
    lines = [f"    if flags & {mask}:"]
    if contains_return(item.stmt):
        lines.append("        try:")
        lines.extend(compiler.block([item.stmt], "            "))
        lines.append("        except _Trunc:")
        lines.append(f"            flags &= ~{mask}")
    else:
        lines.extend(compiler.block([item.stmt], "        "))
    return lines


def _emit_group_call(
    program: Program,
    unit: FusedUnit,
    group: GroupCall,
    group_index: int,
    group_tables: list[str],
    exprc_factory,
) -> list[str]:
    table_name = f"_G_{_Namer.unit(unit)}_{group_index}"
    table_exprc = exprc_factory(program)
    entries = ", ".join(
        f"{table_exprc.table_key(t)}: {_Namer.unit(u)}"
        for t, u in sorted(group.dispatch.items())
    )
    group_tables.append(f"{table_name} = {{{entries}}}")
    # the child units all share one flattened parameter layout; compute
    # the slot arguments into locals (0 when the slot is inactive) and
    # pass them positionally — no per-call tuple/list churn
    target_unit = next(iter(group.dispatch.values()))
    target_params = _unit_param_names(target_unit)
    lines = ["    _cf = 0"]
    arg_locals: list[str] = []
    cursor = 0
    for slot, call in enumerate(group.calls):
        prefix = f"m{call.member}_"
        exprc = exprc_factory(program, local_prefix=prefix)
        target = target_unit.members[slot]
        slot_locals = [
            f"_ga{cursor + offset}" for offset in range(len(target.params))
        ]
        cursor += len(target.params)
        arg_locals.extend(slot_locals)
        cond = f"flags & {1 << call.member}"
        if call.guard is not None:
            cond += f" and {exprc.expr(call.guard)}"
        lines.append(f"    if {cond}:")
        lines.append(f"        _cf |= {1 << slot}")
        for local, param, arg in zip(slot_locals, target.params, call.args):
            value = exprc.expr(arg)
            if not is_primitive(param.type_name):
                value = f"_copy({value})"
            lines.append(f"        {local} = {value}")
        if not slot_locals:
            lines[-1] = lines[-1]  # keep structure; nothing to bind
        else:
            lines.append("    else:")
            for local in slot_locals:
                lines.append(f"        {local} = 0")
    assert len(arg_locals) == len(target_params)
    call_args = "".join(f", {local}" for local in arg_locals)
    lines.append("    if _cf:")
    lines.append(f"        _r = {table_exprc.receiver_text(group.receiver)}")
    lines.append(
        f"        {table_name}[{table_exprc.dispatch_key('_r')}]"
        f"({table_exprc.rt_prefix}_r, _cf{call_args})"
    )
    return lines


# ===========================================================================
# public API
# ===========================================================================


#: The unit namespace generated modules' bytecode is stored under.
BYTECODE_PASS = "bytecode"

# Each module's first-build lock: threads racing on one module's first
# run build its namespace once, and a build waiting on its store holds
# up no other module. Keyed by the module object itself (as
# repro.runtime.heap keys type tables), so pickling a module never
# carries its lock. A forked child starts with none: a lock some parent
# thread held at the fork would never be released in the child.
_BUILD_LOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _forget_build_locks() -> None:
    global _BUILD_LOCKS
    _BUILD_LOCKS = weakref.WeakKeyDictionary()


if hasattr(os, "register_at_fork"):  # not on platforms without fork
    os.register_at_fork(after_in_child=_forget_build_locks)


def bytecode_key(module_name: str, source: str) -> str:
    """The content key of one generated module's bytecode unit: the
    interpreter's bytecode magic number, its optimization level, the
    module name (it becomes ``co_filename``) and the source. A store
    shared across Python versions never serves one version's bytecode to
    another."""
    digest = hashlib.sha256(MAGIC_NUMBER)
    digest.update(f"\x00{sys.flags.optimize}\x00{module_name}\x00".encode())
    digest.update(source.encode())
    return digest.hexdigest()


class _CompiledModule:
    """Shared exec machinery for the compiled-module classes of both
    layouts.

    The exec'd namespace is built lazily on first use and excluded from
    pickling (functions defined by ``exec`` cannot be pickled) — a fresh
    or disk-restored module pays the module exec only when it is
    actually run, which keeps warm-store compiles to the cost of a file
    read plus an unpickle.

    The store that resolved the module (:meth:`attach_store`) serves and
    keeps its bytecode; like the namespace it is never pickled.
    """

    source: str
    _namespace: Optional[dict]
    _store = None

    @property
    def namespace(self) -> dict:
        namespace = self._namespace
        if namespace is None:
            with _BUILD_LOCKS.setdefault(self, threading.Lock()):
                namespace = self._namespace
                if namespace is None:
                    namespace = {}
                    exec(self._code(), namespace)
                    self._namespace = namespace
        return namespace

    def attach_store(self, store) -> None:
        """Build this module's namespace from the bytecode unit *store*
        holds, and publish the bytecode there when it holds none. A
        module already built needs no store."""
        if self._namespace is None:
            self._store = store

    def _code(self) -> CodeType:
        """The module's code: its stored bytecode when the store holds a
        unit that decodes to code, else compiled from the source and
        published to the store."""
        name = self._module_name()
        store = self._store
        if store is None:
            return compile(self.source, name, "exec")
        key = bytecode_key(name, self.source)
        hit = store.get_unit(BYTECODE_PASS, key)
        if hit is not None:
            try:
                code = marshal.loads(hit[0])
            except (EOFError, TypeError, ValueError):
                code = None  # not marshal data: compile it afresh
            if isinstance(code, CodeType):
                return code
        code = compile(self.source, name, "exec")
        store.put_unit(BYTECODE_PASS, key, marshal.dumps(code), spill=True)
        return code

    def _module_name(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_namespace"] = None
        state.pop("_store", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


class CompiledProgram(_CompiledModule):
    def __init__(self, program: Program, source: str):
        """Wrap assembled module source (:func:`assemble_module`). The
        namespace is built lazily on first run, like a disk-restored
        artifact — a warm recompile does not pay the module exec."""
        self.program = program
        self.source = source
        self._namespace = None

    def _module_name(self) -> str:
        return f"<repro:{self.program.name}>"

    def run_entry(self, heap: Heap, root: Node, globals_map=None) -> RuntimeContext:
        context = RuntimeContext(self.program, heap, globals_map)
        self.namespace["run_entry"](context, root)
        return context


class CompiledFused(_CompiledModule):
    def __init__(self, fused: FusedProgram, source: str):
        """Wrap assembled module source (:func:`assemble_fused_module`);
        lazy namespace, like :class:`CompiledProgram`."""
        self.fused = fused
        self.program = fused.program
        self.source = source
        self._namespace = None

    def _module_name(self) -> str:
        return f"<repro:{self.program.name}:fused>"

    def run_fused(self, heap: Heap, root: Node, globals_map=None) -> RuntimeContext:
        context = RuntimeContext(self.program, heap, globals_map)
        self.namespace["run_fused"](context, root)
        return context
