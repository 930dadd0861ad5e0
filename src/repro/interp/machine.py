"""The IR interpreter: the one executor of traversal semantics.

It walks the :mod:`repro.ir` statement and expression forms directly —
dynamic dispatch on each node's runtime type, truncation via
``return;``, topology mutation, globals, by-value parameters, pure
calls — and runs a program's original entry schedule as well as a
:class:`~repro.fusion.fused_ir.FusedProgram` under the active-flag
semantics of paper §3.4. Every tree and global access goes through a
:mod:`repro.interp.views` layout view, so the same code runs over
``Node`` objects and over ``ForestPool`` columns.

This is the executable specification: the compiled backends are
measured against it (:mod:`repro.fuzz`), and the service uses it as the
zero-compile tier (``mode="interpret"``). Given a *meter* (object
layout only) it is also the paper's cost-model stand-in (§5,
:mod:`repro.bench.metrics`): the charges are compiled into the
statement lists a metered run executes (:class:`_Pricing`), so an
unmetered run never tests for a meter, and the view records the
address of every access for the cache simulator.

C++ value semantics match the generated code exactly: ``/`` truncates
toward zero, ``%`` takes the dividend's sign, ``&&``/``||``
short-circuit to bools, and object values copy on assignment and
parameter passing.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from typing import Optional

from repro.errors import RuntimeFailure
from repro.fusion.fused_ir import FusedProgram, FusedUnit, GroupCall
from repro.interp.views import MeteredObjectView, ObjectTreeView
from repro.ir.access import AccessPath
from repro.ir.exprs import (
    BinOp,
    Const,
    DataAccess,
    Expr,
    PureCall,
    UnaryOp,
    expr_cost,
)
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
    walk_stmts,
)
from repro.runtime.stats import CostModel, ExecStats
from repro.runtime.values import (
    _cxx_div,
    _cxx_mod,
    copy_value,
    default_value,
    initial_globals,
)


# the strict binary operators; ``&&``/``||`` short-circuit separately
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _cxx_div,
    "%": _cxx_mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class _ReturnSignal(Exception):
    """Raised by ``return;`` — truncates the current traversal frame."""


_RETURN = _ReturnSignal()

# Safety net for the §3.5 loop extension: traversal loops iterate over
# bounded local computations, so a huge trip count is a non-termination
# bug in the input program, not a workload.
_LOOP_LIMIT = 1_000_000


class _Frame:
    """One method activation: local values plus which names are tree
    aliases. Aliases are tracked explicitly (by ``_alias_`` definition)
    rather than sniffed with ``isinstance`` because pooled-view node
    references are plain ints — indistinguishable from data locals."""

    __slots__ = ("vars", "aliases")

    def __init__(self, params=(), args=()):
        self.vars: dict[str, object] = {}
        for param, value in zip(params, args):
            self.vars[param.name] = copy_value(value)
        self.aliases: set[str] = set()


class Interpreter:
    """Execute a program's original entry schedule, or a fused program,
    against a layout view.

    ``globals_dict`` is shared with the caller (typically a
    :class:`repro.codegen.python_backend.RuntimeContext`'s dict) so the
    final global state is observable the same way compiled runs expose
    it; by default every global starts at its zero value. The
    interpreter counts node visits, truncations and writes (tree
    fields, topology slots and globals). ``meter`` turns on the cost
    model (see the module docstring).
    """

    def __init__(
        self,
        program: Program,
        view,
        globals_dict: Optional[dict] = None,
        meter: Optional[ExecStats] = None,
    ):
        program.finalize()
        self.program = program
        if globals_dict is None:
            globals_dict = initial_globals(program)
        self.globals = globals_dict
        self.node_visits = 0
        self.truncations = 0
        self.writes = 0
        self.meter = meter
        # The pricing of a metered run, bound once here: method
        # resolution hands out priced bodies (see _Pricing), and every
        # other path is shared with the unmetered run.
        if meter is None:
            self.view = view
            self._pricing = None
            self._resolve = program.resolve_method
            return
        if type(view) is not ObjectTreeView:
            raise RuntimeFailure(
                "the cost model meters the object layout only"
            )
        self.view = MeteredObjectView(program, view.heap, meter)
        self._pricing = _Pricing(program, meter.cost)
        self._resolve = self._pricing.resolve

    # ==================================================================
    # entry points
    # ==================================================================

    def run_entry(self, root) -> None:
        """The original entry sequence: each call in ``main`` runs to
        completion over the whole tree before the next starts."""
        for call in self.program.entry:
            frame = _Frame()
            args = [self.eval_expr(a, root, frame) for a in call.args]
            if self.meter is not None:
                self.meter.instructions += (
                    self.meter.cost.per_argument * len(args)
                )
            self.call_method(root, call.method_name, args)

    def run_fused(self, fused: FusedProgram, root) -> None:
        """The fused entry sequence: each entry group calls one fused
        unit on the root with every member active."""
        for group in fused.entry_groups:
            unit = group.dispatch.get(self.view.type_of(root))
            if unit is None:
                raise RuntimeFailure(
                    f"no fused entry for root type "
                    f"{self.view.type_of(root)}"
                )
            frame = _Frame()
            member_args = [
                tuple(self.eval_expr(a, root, frame) for a in arg_exprs)
                for arg_exprs in group.args_per_member
            ]
            self.call_fused(unit, root, member_args, (1 << unit.width) - 1)

    # ==================================================================
    # original (unfused) execution
    # ==================================================================

    def call_method(self, node, method_name: str, args: list) -> None:
        if node is None:
            raise RuntimeFailure(
                f"traversal {method_name!r} called on null"
            )
        method = self._resolve(self.view.type_of(node), method_name)
        self.node_visits += 1
        frame = _Frame(method.params, args)
        try:
            for stmt in method.body:
                self.exec_stmt(stmt, node, frame)
        except _ReturnSignal:
            self.truncations += 1

    # ==================================================================
    # fused execution (paper §3.4 semantics)
    # ==================================================================

    def call_fused(
        self,
        unit: FusedUnit,
        node,
        member_args: list[tuple],
        active_flags: int,
    ) -> None:
        meter = self.meter
        self.node_visits += 1
        frames: list[_Frame] = []
        for member, method in enumerate(unit.members):
            args = member_args[member] if member < len(member_args) else ()
            frames.append(_Frame(method.params, args))
        if meter is not None:
            # one stub dispatch and one call for the whole group
            cost = meter.cost
            meter.instructions += (
                cost.call_overhead
                + cost.virtual_dispatch
                + cost.per_argument * sum(map(len, member_args[: len(frames)]))
            )
        for item in unit.body:
            if active_flags == 0:
                break
            if meter is not None:
                meter.instructions += meter.cost.flag_check
            if item.__class__ is GroupCall:
                self._group_call(item, node, frames, active_flags)
                continue
            if not active_flags & (1 << item.member):
                continue
            block = (
                (item.stmt,)
                if meter is None
                else self._pricing.block_of(item.stmt)
            )
            try:
                for stmt in block:
                    self.exec_stmt(stmt, node, frames[item.member])
            except _ReturnSignal:
                active_flags &= ~(1 << item.member)
                self.truncations += 1
                if meter is not None:
                    meter.instructions += meter.cost.return_stmt

    def _group_call(
        self,
        group: GroupCall,
        node,
        frames: list[_Frame],
        active_flags: int,
    ) -> None:
        """Pack the call flags of the members that call on, evaluate
        their arguments, and make one fused call on the receiver."""
        meter = self.meter
        call_flags = 0
        child_args: list[tuple] = []
        for slot, member_call in enumerate(group.calls):
            if meter is not None:
                meter.instructions += meter.cost.call_flag_pack
            if not active_flags & (1 << member_call.member):
                child_args.append(())
                continue
            frame = frames[member_call.member]
            if member_call.guard is not None:
                if meter is not None:
                    meter.instructions += (
                        expr_cost(member_call.guard) + meter.cost.branch
                    )
                if not self.eval_expr(member_call.guard, node, frame):
                    child_args.append(())
                    continue
            call_flags |= 1 << slot
            if meter is not None:
                meter.instructions += sum(map(expr_cost, member_call.args))
            child_args.append(
                tuple(self.eval_expr(a, node, frame) for a in member_call.args)
            )
        if call_flags == 0:
            return
        child = node
        if not group.receiver.is_this:
            child = self.view.get(node, group.receiver.child.name)
            if meter is not None:
                meter.instructions += meter.cost.null_check
            if child is None:
                raise RuntimeFailure(
                    f"fused group call on null child "
                    f"{self.view.type_of(node)}.{group.receiver.child.name}"
                )
        unit = group.dispatch.get(self.view.type_of(child))
        if unit is None:
            raise RuntimeFailure(
                f"no fused unit for dynamic type "
                f"{self.view.type_of(child)} in group {group}"
            )
        self.call_fused(unit, child, child_args, call_flags)

    # ==================================================================
    # statements
    # ==================================================================

    def exec_stmt(self, stmt: Stmt, this, frame: _Frame) -> None:
        kind = stmt.__class__
        if kind is Assign:
            value = self.eval_expr(stmt.value, this, frame)
            self.write_path(stmt.target, this, frame, value)
        elif kind is If:
            branch = (
                stmt.then_body
                if self.eval_expr(stmt.cond, this, frame)
                else stmt.else_body
            )
            for sub in branch:
                self.exec_stmt(sub, this, frame)
        elif kind is While:
            iterations = 0
            while self.eval_expr(stmt.cond, this, frame):
                for sub in stmt.body:
                    self.exec_stmt(sub, this, frame)
                iterations += 1
                if iterations > _LOOP_LIMIT:
                    raise RuntimeFailure(
                        f"while loop exceeded {_LOOP_LIMIT} iterations "
                        "(likely non-terminating)"
                    )
        elif kind is TraverseStmt:
            args = [self.eval_expr(a, this, frame) for a in stmt.args]
            if stmt.receiver.is_this:
                target = this
            else:
                target = self.view.get(this, stmt.receiver.child.name)
            self.call_method(target, stmt.method_name, args)
        elif kind is LocalDef:
            if stmt.init is not None:
                frame.vars[stmt.name] = copy_value(
                    self.eval_expr(stmt.init, this, frame)
                )
            else:
                frame.vars[stmt.name] = default_value(
                    self.program, stmt.type_name
                )
            frame.aliases.discard(stmt.name)
        elif kind is AliasDef:
            frame.vars[stmt.name] = self._walk_tree_node(
                stmt.target, this, frame
            )
            frame.aliases.add(stmt.name)
        elif kind is Return:
            raise _RETURN
        elif kind is New or kind is Delete:
            parent, field_name = self._locate_child_slot(
                stmt.target, this, frame
            )
            self.writes += 1
            fresh = self.view.new(stmt.type_name) if kind is New else None
            self.view.set(parent, field_name, fresh)
        elif kind is PureStmt:
            self.eval_expr(stmt.call, this, frame)
        elif kind is _Charge:
            self.meter.instructions += stmt.amount
        else:  # pragma: no cover - defensive
            raise RuntimeFailure(
                f"unknown statement {type(stmt).__name__}"
            )

    # ==================================================================
    # paths
    # ==================================================================

    def _read_child(self, node, field_name: str):
        child = self.view.get(node, field_name)
        if child is None:
            raise RuntimeFailure(
                f"null child {field_name!r} on "
                f"{self.view.type_of(node)}"
            )
        return child

    def _walk_tree_node(self, path: AccessPath, this, frame: _Frame):
        node = self._base_node(path, this, frame)
        for step in path.steps:
            node = self._read_child(node, step.field.name)
        return node

    def _locate_child_slot(
        self, path: AccessPath, this, frame: _Frame
    ) -> tuple[object, str]:
        node = self._base_node(path, this, frame)
        for step in path.steps[:-1]:
            node = self._read_child(node, step.field.name)
        return node, path.steps[-1].field.name

    def _base_node(self, path: AccessPath, this, frame: _Frame):
        if path.base == "this":
            return this
        if path.is_local:
            if path.base_name not in frame.aliases:
                raise RuntimeFailure(
                    f"local {path.base_name!r} is not a tree alias"
                )
            return frame.vars[path.base_name]
        raise RuntimeFailure(f"path {path} cannot start at a global")

    def read_path(self, path: AccessPath, this, frame: _Frame):
        if path.is_global:
            return self.view.read_global(self.globals, path)
        if path.is_local and path.base_name not in frame.aliases:
            value = frame.vars[path.base_name]
            for step in path.steps:
                value = value.get(step.field.name)
            return value
        # on-tree: this-based or through an alias
        node = self._base_node(path, this, frame)
        index = 0
        steps = path.steps
        while index < len(steps) and steps[index].field.is_child:
            node = self._read_child(node, steps[index].field.name)
            index += 1
        remaining = len(steps) - index
        if remaining == 0:
            return node
        if remaining == 1:
            return self.view.get(node, steps[index].field.name)
        return self.view.get_member(
            node, steps[index].field.name, steps[index + 1].field.name
        )

    def write_path(
        self, path: AccessPath, this, frame: _Frame, value
    ) -> None:
        if path.is_global:
            self.writes += 1
            self.view.write_global(self.globals, path, value)
            return
        if path.is_local and path.base_name not in frame.aliases:
            if not path.steps:
                frame.vars[path.base_name] = copy_value(value)
                return
            container = frame.vars[path.base_name]
            for step in path.steps[:-1]:
                container = container.get(step.field.name)
            container.set(path.steps[-1].field.name, value)
            return
        node = self._base_node(path, this, frame)
        index = 0
        steps = path.steps
        while index < len(steps) and steps[index].field.is_child:
            if index == len(steps) - 1:
                raise RuntimeFailure(f"assignment to tree node {path}")
            node = self._read_child(node, steps[index].field.name)
            index += 1
        self.writes += 1
        if len(steps) - index == 1:
            self.view.set(node, steps[index].field.name, copy_value(value))
            return
        self.view.set_member(
            node, steps[index].field.name, steps[index + 1].field.name, value
        )

    # ==================================================================
    # expressions
    # ==================================================================

    def eval_expr(self, expr: Expr, this, frame: _Frame):
        kind = expr.__class__
        if kind is Const:
            return expr.value
        if kind is DataAccess:
            return self.read_path(expr.path, this, frame)
        if kind is BinOp:
            return self._eval_binop(expr, this, frame)
        if kind is UnaryOp:
            operand = self.eval_expr(expr.operand, this, frame)
            if expr.op == "-":
                return -operand
            return not operand
        if kind is PureCall:
            func = self.program.pure_functions[expr.func_name]
            args = [
                copy_value(self.eval_expr(a, this, frame))
                for a in expr.args
            ]
            return func(*args)
        raise RuntimeFailure(
            f"unknown expression {type(expr).__name__}"
        )

    def _eval_binop(self, expr: BinOp, this, frame: _Frame):
        op = expr.op
        if op == "&&":
            return bool(
                self.eval_expr(expr.lhs, this, frame)
                and self.eval_expr(expr.rhs, this, frame)
            )
        if op == "||":
            return bool(
                self.eval_expr(expr.lhs, this, frame)
                or self.eval_expr(expr.rhs, this, frame)
            )
        apply = _BINARY.get(op)
        if apply is None:
            raise RuntimeFailure(f"unknown operator {op!r}")
        return apply(
            self.eval_expr(expr.lhs, this, frame),
            self.eval_expr(expr.rhs, this, frame),
        )


# ======================================================================
# the cost model, compiled into the statements a metered run executes
# ======================================================================


class _Charge:
    """A pseudo-statement in a priced statement list: charge ``amount``
    instructions."""

    __slots__ = ("amount",)

    def __init__(self, amount: int):
        self.amount = amount


class _Pricing:
    """The paper's instruction cost model (§5) compiled into a program.

    A priced statement list charges each statement's static cost in a
    :class:`_Charge` before it, summed over each run of statements that
    cannot ``return`` (a run either completes or fails the whole
    execution). A priced method body opens with the call's charge; a
    priced loop body ends with the next condition test's.
    """

    def __init__(self, program: Program, cost: CostModel):
        self.program = program
        self.cost = cost
        # priced methods and guarded statements, by id of the original
        self._priced_by_id: dict[int, object] = {}

    def resolve(self, type_name: str, method_name: str) -> TraversalMethod:
        """Dynamic dispatch to the method with its body priced."""
        method = self.program.resolve_method(type_name, method_name)
        priced = self._priced_by_id.get(id(method))
        if priced is None:
            call = self.cost.call_overhead
            if method.virtual:
                call += self.cost.virtual_dispatch
            priced = self._priced_by_id[id(method)] = replace(
                method, body=self.block(method.body, leading=call)
            )
        return priced

    def block_of(self, stmt: Stmt) -> list:
        """One statement, priced (a fused unit's guarded statement)."""
        block = self._priced_by_id.get(id(stmt))
        if block is None:
            block = self._priced_by_id[id(stmt)] = self.block([stmt])
        return block

    def block(self, stmts, leading: int = 0, trailing: int = 0) -> list:
        out: list = []
        run: list = []
        pending = leading
        for stmt in stmts:
            priced, charge = self._priced(stmt)
            run.append(priced)
            pending += charge
            if any(isinstance(s, Return) for s in walk_stmts([stmt])):
                out += [_Charge(pending)] if pending else []
                out += run
                run, pending = [], 0
        pending += trailing
        out += [_Charge(pending)] if pending else []
        return out + run

    def _priced(self, stmt: Stmt) -> tuple[Stmt, int]:
        cost = self.cost
        if isinstance(stmt, (If, While)):
            test = expr_cost(stmt.cond) + cost.branch
            if isinstance(stmt, If):
                return replace(
                    stmt,
                    then_body=self.block(stmt.then_body),
                    else_body=self.block(stmt.else_body),
                ), test
            return replace(
                stmt, body=self.block(stmt.body, trailing=test)
            ), test
        if isinstance(stmt, Assign):
            return stmt, expr_cost(stmt.value) + len(stmt.target.steps)
        if isinstance(stmt, TraverseStmt):
            charge = sum(map(expr_cost, stmt.args))
            charge += cost.per_argument * len(stmt.args)
            if not stmt.receiver.is_this:
                charge += cost.null_check
            return stmt, charge
        if isinstance(stmt, LocalDef):
            return stmt, 0 if stmt.init is None else expr_cost(stmt.init)
        if isinstance(stmt, AliasDef):
            return stmt, len(stmt.target.steps)
        if isinstance(stmt, Return):
            return stmt, cost.return_stmt
        if isinstance(stmt, New):
            return stmt, cost.new_node + len(stmt.target.steps)
        if isinstance(stmt, Delete):
            return stmt, cost.delete_node + len(stmt.target.steps)
        return stmt, expr_cost(stmt.call)  # PureStmt
