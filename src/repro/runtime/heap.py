"""Heap layout: node addresses and field offsets for the cache simulator.

Nodes are laid out C++-style: an 8-byte header (vtable pointer) followed
by the fields in inheritance order (base-most class first, declaration
order within a class). Child pointers and primitives take 8 bytes; an
opaque object field takes 8 bytes per member, inline. A bump allocator
assigns addresses in construction order — matching how the paper's
workload generators build trees and giving the allocation-order locality
that makes the cache results meaningful.

Everything here that depends only on the program — each type's layout,
the field dict a new node of each concrete type starts from, how a
pool lays out its rows, the globals' addresses — is computed once per
:class:`Program` into its :class:`TypeTable` (:func:`type_table`), which
every heap, node build and pool of that program reads.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import RuntimeFailure
from repro.ir.program import Program
from repro.ir.types import is_primitive
from repro.runtime.values import ObjectValue, default_value

WORD = 8
HEADER_BYTES = 8


@dataclass
class TypeLayout:
    """Field offsets (bytes from node base) for one tree type."""

    type_name: str
    size: int
    field_offsets: dict[str, int]
    # member offsets within opaque object fields: (field, member) -> offset
    member_offsets: dict[tuple[str, str], int]

    def offset_of(self, field_name: str, member_name: str | None = None) -> int:
        if member_name is None:
            return self.field_offsets[field_name]
        return self.member_offsets[(field_name, member_name)]


def compute_layout(program: Program, type_name: str) -> TypeLayout:
    offset = HEADER_BYTES
    field_offsets: dict[str, int] = {}
    member_offsets: dict[tuple[str, str], int] = {}
    # base-most first: reverse MRO
    for owner_name in reversed(program.mro(type_name)):
        owner = program.tree_types[owner_name]
        for field in owner.own_fields():
            field_offsets[field.name] = offset
            if field.is_child or is_primitive(field.type_name):
                offset += WORD
            else:
                opaque = program.opaque_classes[field.type_name]
                for member_name in opaque.fields:
                    member_offsets[(field.name, member_name)] = offset
                    offset += WORD
    # round node size up to a 16-byte allocation boundary (glibc-like)
    size = (offset + 15) & ~15
    return TypeLayout(
        type_name=type_name,
        size=size,
        field_offsets=field_offsets,
        member_offsets=member_offsets,
    )


@dataclass(frozen=True)
class RowShape:
    """One tree type's fields as a pool row holds them."""

    tag: int
    children: tuple[str, ...]  # child-field names, declaration order
    data: tuple[str, ...]  # data-field names, declaration order
    # every field, declaration order, as (name, is_child): the key
    # order of a node's field dict and of its snapshot
    fields: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class PoolPlan:
    """How one program's trees lie in a
    :class:`~repro.layout.ForestPool`: every pool of the program reads
    this one plan instead of asking the program per row.

    * ``type_names`` — every tree type, sorted; a row's tag indexes it.
    * ``type_ids`` — the inverse: type name to tag.
    * ``columns`` — the union of field names, sorted: the pool's column
      set and the pooled module's binding order.
    * ``object_columns`` — the columns that hold opaque values.
    * ``shapes`` / ``shapes_by_tag`` — each type's :class:`RowShape`,
      by name and by tag.
    """

    type_names: list[str]
    type_ids: dict[str, int]
    columns: tuple[str, ...]
    object_columns: frozenset[str]
    shapes: dict[str, RowShape]
    shapes_by_tag: tuple[RowShape, ...]

    @classmethod
    def of(cls, program: Program) -> "PoolPlan":
        type_names = sorted(program.tree_types)
        shapes: dict[str, RowShape] = {}
        columns: set[str] = set()
        object_columns: set[str] = set()
        for tag, type_name in enumerate(type_names):
            fields = program.fields_of(type_name).items()
            shapes[type_name] = RowShape(
                tag=tag,
                children=tuple(name for name, f in fields if f.is_child),
                data=tuple(name for name, f in fields if not f.is_child),
                fields=tuple((name, f.is_child) for name, f in fields),
            )
            columns.update(name for name, _ in fields)
            object_columns.update(
                name
                for name, f in fields
                if not f.is_child and not is_primitive(f.type_name)
            )
        return cls(
            type_names=type_names,
            type_ids={name: shape.tag for name, shape in shapes.items()},
            columns=tuple(sorted(columns)),
            object_columns=frozenset(object_columns),
            shapes=shapes,
            shapes_by_tag=tuple(shapes.values()),
        )


class TypeTable:
    """The run-time shape of one program's types, computed once.

    * ``layouts`` — every tree type's :class:`TypeLayout`.
    * ``templates`` — for each concrete type, the field dict a new node
      starts from (children ``None``, data fields at their declared or
      zero defaults) and the opaque fields that need a fresh
      :class:`ObjectValue` per node, as ``(field, class, members)``.
    * ``pool_plan`` — the :class:`PoolPlan` every pool of the program
      reads.
    * ``global_addresses`` — each global's address in the globals
      segment (read-only).

    Nothing a node receives is shared: :meth:`new_fields` copies the
    template dict and builds each opaque value afresh, so a traversal
    writing one node's field or member never reaches another node.
    """

    def __init__(self, program: Program):
        self.layouts: dict[str, TypeLayout] = {
            name: compute_layout(program, name)
            for name in program.tree_types
        }
        self.templates: dict[str, tuple[dict, tuple]] = {
            name: _template(program, name)
            for name, tree_type in program.tree_types.items()
            if not tree_type.abstract
        }
        self.pool_plan = PoolPlan.of(program)
        addresses: dict[str, int] = {}
        offset = Heap.GLOBALS_BASE
        for var in program.globals.values():
            addresses[var.name] = offset
            if is_primitive(var.type_name):
                offset += WORD
            else:
                opaque = program.opaque_classes[var.type_name]
                offset += WORD * max(1, len(opaque.fields))
        self.global_addresses = MappingProxyType(addresses)

    def new_fields(self, type_name: str) -> dict:
        """A fresh field dict for one node of *type_name*. Shared by
        :meth:`repro.runtime.Node.new` and the pooled layout's row
        allocator (:meth:`repro.layout.ForestPool.new`), so both
        backends agree on what a default-constructed node holds."""
        template = self.templates.get(type_name)
        if template is None:
            if type_name in self.layouts:
                raise RuntimeFailure(
                    f"cannot instantiate abstract type {type_name}"
                )
            raise RuntimeFailure(
                f"cannot instantiate unknown type {type_name!r}"
            )
        defaults, opaque = template
        fields = defaults.copy()
        for name, class_name, members in opaque:
            fields[name] = ObjectValue(class_name, members.copy())
        return fields


def _template(program: Program, type_name: str) -> tuple[dict, tuple]:
    defaults: dict = {}
    opaque: list[tuple[str, str, dict]] = []
    for name, field in program.fields_of(type_name).items():
        value = None
        if not field.is_child:
            # the declaring class's default, as the printer prints it
            value = program.tree_types[field.owner].data_defaults.get(name)
            if value is None:
                value = default_value(program, field.type_name)
            if isinstance(value, ObjectValue):
                opaque.append((name, value.class_name, dict(value.members)))
                value = None  # filled per node by TypeTable.new_fields
        defaults[name] = value
    return defaults, tuple(opaque)


# Keyed by the Program object itself, never by id(): an entry goes away
# with its program, so a new program at a reused address cannot read a
# dead program's table. Kept off the Program so that pickling one (into
# the artifact store, or to a worker process) never carries it.
_TABLES: "weakref.WeakKeyDictionary[Program, TypeTable]" = (
    weakref.WeakKeyDictionary()
)
_TABLES_LOCK = threading.Lock()


def type_table(program: Program) -> TypeTable:
    """*program*'s :class:`TypeTable`, built on first use; every caller,
    in any thread, gets the same one."""
    table = _TABLES.get(program)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.get(program)
            if table is None:
                table = _TABLES[program] = TypeTable(program)
    return table


class Heap:
    """Bump allocator handing out node and global addresses."""

    GLOBALS_BASE = 0x1000
    NODES_BASE = 0x100000

    def __init__(self, program: Program):
        self.program = program
        self.table = type_table(program)
        self._layouts = self.table.layouts
        self._next = self.NODES_BASE
        self.allocated_nodes = 0
        self.allocated_bytes = 0
        # globals live in their own segment
        self.global_addresses = self.table.global_addresses

    def layout(self, type_name: str) -> TypeLayout:
        return self._layouts[type_name]

    def allocate(self, type_name: str) -> int:
        size = self._layouts[type_name].size
        address = self._next
        self._next += size
        self.allocated_nodes += 1
        self.allocated_bytes += size
        return address

    def global_address(self, name: str, member: str | None = None) -> int:
        base = self.global_addresses.get(name)
        if base is None:
            raise RuntimeFailure(f"unknown global {name!r}")
        if member is None:
            return base
        opaque = self.program.opaque_classes[self.program.globals[name].type_name]
        index = list(opaque.fields).index(member)
        return base + WORD * index

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of live tree data (the paper's 'tree size')."""
        return self.allocated_bytes
