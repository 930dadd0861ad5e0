"""Layout views: one interpreter, two tree representations.

The interpreter (:mod:`repro.interp.machine`) never touches a
tree directly — every representation operation goes through a *view*,
so the same statement/expression semantics execute against the ``Node``
object graph and against :class:`~repro.layout.pool.ForestPool`
structure-of-arrays columns. A view's node *references* are opaque to
the interpreter: ``Node`` objects for the object graph, integer row
indices for the pool. The interpreter always knows statically (from the
resolved :class:`~repro.ir.access.AccessPath` field metadata) whether a
value it reads is a child reference or a data value, so the two
reference kinds never need runtime disambiguation.

Both views share the compiled backends' external contract: ``ingest`` a
root ``Node``, run, ``finish`` — after which the original ``Node``
objects hold the final tree state (the pooled view writes its columns
back, exactly like :class:`repro.codegen.pooled_backend._PooledRunMixin`).

Globals live in the view too (``read_global``/``write_global``), so
every access that has an address in the paper's memory model goes
through one object: :class:`MeteredObjectView` is the object view that
also feeds each of those addresses to an
:class:`~repro.runtime.stats.ExecStats` trace for the cache simulator.
"""

from __future__ import annotations

from repro.errors import RuntimeFailure
from repro.ir.access import AccessPath
from repro.ir.program import Program
from repro.layout.base import LAYOUT_NAMES
from repro.layout.pool import ForestPool
from repro.runtime.heap import Heap
from repro.runtime.node import Node
from repro.runtime.stats import ExecStats
from repro.runtime.values import copy_value


class _GlobalsAccess:
    """Global reads and writes, the same for every layout: globals are
    a dict beside the tree, and a global path's steps are members of an
    object value."""

    def read_global(self, values: dict, path: AccessPath):
        value = values[path.base_name]
        for step in path.steps:
            value = value.get(step.field.name)
        return value

    def write_global(self, values: dict, path: AccessPath, value) -> None:
        steps = path.steps
        if not steps:
            values[path.base_name] = copy_value(value)
            return
        container = values[path.base_name]
        for step in steps[:-1]:
            container = container.get(step.field.name)
        container.set(steps[-1].field.name, value)


class ObjectTreeView(_GlobalsAccess):
    """The identity view: references are :class:`Node` objects."""

    name = "object"

    def __init__(self, program: Program, heap: Heap):
        self.program = program
        self.heap = heap

    def ingest(self, root: Node):
        return root

    def type_of(self, ref) -> str:
        return ref.type_name

    def get(self, ref, field_name: str):
        return ref.get(field_name)

    def set(self, ref, field_name: str, value) -> None:
        ref.set(field_name, value)

    def get_member(self, ref, field_name: str, member: str):
        return ref.get(field_name).get(member)

    def set_member(self, ref, field_name: str, member: str, value) -> None:
        ref.get(field_name).set(member, value)

    def new(self, type_name: str):
        return Node.new(self.program, self.heap, type_name)

    def finish(self) -> None:
        pass


class PooledTreeView(_GlobalsAccess):
    """References are integer row indices into a :class:`ForestPool`.

    ``ingest`` serializes the tree into a fresh pool (DFS preorder, the
    same ingest the pooled compiled modules perform); ``finish`` writes
    every row back into its backing ``Node`` so callers observe the run
    through the same object graph an object-layout run leaves behind.
    """

    name = "pooled"

    def __init__(self, program: Program, heap: Heap):
        self.program = program
        self.heap = heap
        self.pool: ForestPool | None = None

    def ingest(self, root: Node) -> int:
        self.pool = ForestPool.from_tree(self.program, root)
        return self.pool.roots[0]

    def type_of(self, ref: int) -> str:
        return self.pool.type_name(ref)

    def _column(self, field_name: str) -> list:
        column = self.pool.columns.get(field_name)
        if column is None:
            raise RuntimeFailure(f"pool has no column {field_name!r}")
        return column

    def get(self, ref: int, field_name: str):
        return self._column(field_name)[ref]

    def set(self, ref: int, field_name: str, value) -> None:
        self._column(field_name)[ref] = value

    def get_member(self, ref: int, field_name: str, member: str):
        return self._column(field_name)[ref].get(member)

    def set_member(self, ref: int, field_name: str, member: str, value):
        self._column(field_name)[ref].set(member, value)

    def new(self, type_name: str) -> int:
        return self.pool.new(type_name)

    def finish(self) -> None:
        if self.pool is not None:
            self.pool.write_back(self.heap)


class MeteredObjectView(ObjectTreeView):
    """The object view, recording the address of every access in
    *stats*: a child or field slot at the node's address plus its
    layout offset, an object member at its own inline offset, a global
    at its slot in the globals segment (:mod:`repro.runtime.heap`)."""

    def __init__(self, program: Program, heap: Heap, stats: ExecStats):
        super().__init__(program, heap)
        self.stats = stats

    def _slot(self, ref, field_name: str, member=None) -> int:
        layout = self.heap.layout(ref.type_name)
        return ref.address + layout.offset_of(field_name, member)

    def get(self, ref, field_name: str):
        self.stats.read(self._slot(ref, field_name))
        return ref.get(field_name)

    def set(self, ref, field_name: str, value) -> None:
        self.stats.write(self._slot(ref, field_name))
        ref.set(field_name, value)

    def get_member(self, ref, field_name: str, member: str):
        self.stats.read(self._slot(ref, field_name, member))
        return ref.get(field_name).get(member)

    def set_member(self, ref, field_name: str, member: str, value) -> None:
        self.stats.write(self._slot(ref, field_name, member))
        ref.get(field_name).set(member, value)

    def _global_slot(self, path: AccessPath) -> int:
        member = path.steps[0].field.name if path.steps else None
        return self.heap.global_address(path.base_name, member)

    def read_global(self, values: dict, path: AccessPath):
        self.stats.read(self._global_slot(path))
        return super().read_global(values, path)

    def write_global(self, values: dict, path: AccessPath, value) -> None:
        self.stats.write(self._global_slot(path))
        super().write_global(values, path, value)


def view_for(layout: str, program: Program, heap: Heap):
    """The view implementing one layout name ('object' | 'pooled')."""
    if layout == "object":
        return ObjectTreeView(program, heap)
    if layout == "pooled":
        return PooledTreeView(program, heap)
    raise RuntimeFailure(
        f"unknown tree layout {layout!r}; have {LAYOUT_NAMES}"
    )
