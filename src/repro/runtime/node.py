"""Runtime tree nodes."""

from __future__ import annotations

from typing import Iterator

from repro.errors import RuntimeFailure
from repro.ir.program import Program
from repro.runtime.heap import Heap, type_table
from repro.runtime.values import ObjectValue


class Node:
    """One tree node: dynamic type, field values, heap address.

    Child fields hold ``Node`` or ``None``; data fields hold primitives or
    :class:`ObjectValue`. Use :meth:`Node.new` so defaults and the address
    come out consistent with the program's layouts.
    """

    __slots__ = ("type_name", "fields", "address")

    def __init__(self, type_name: str, fields: dict, address: int):
        self.type_name = type_name
        self.fields = fields
        self.address = address

    @staticmethod
    def new(program: Program, heap: Heap, type_name: str, **overrides) -> "Node":
        """A node of *type_name* with *overrides* over its defaults, at
        the next address of *heap*: one copy of the type's template from
        the program's :class:`~repro.runtime.heap.TypeTable` (a heap of
        this program already holds it)."""
        table = heap.table if heap.program is program else type_table(program)
        fields = table.new_fields(type_name)
        for key, value in overrides.items():
            if key not in fields:
                raise RuntimeFailure(f"{type_name} has no field {key!r}")
            fields[key] = value
        return Node(type_name, fields, heap.allocate(type_name))

    def get(self, field_name: str):
        try:
            return self.fields[field_name]
        except KeyError:
            raise RuntimeFailure(
                f"node of type {self.type_name} has no field {field_name!r}"
            ) from None

    def set(self, field_name: str, value) -> None:
        if field_name not in self.fields:
            raise RuntimeFailure(
                f"node of type {self.type_name} has no field {field_name!r}"
            )
        self.fields[field_name] = value

    # -- tree utilities (used by workloads/tests) -------------------------

    def walk(self, program: Program) -> Iterator["Node"]:
        """Preorder walk of the subtree under this node. Iterative — a
        degenerate chain deeper than the interpreter's recursion limit
        (deep kd-trees) must still walk."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            children = [
                node.fields[field_name]
                for field_name, field in program.fields_of(
                    node.type_name
                ).items()
                if field.is_child and node.fields[field_name] is not None
            ]
            stack.extend(reversed(children))

    def count_nodes(self, program: Program) -> int:
        return sum(1 for _ in self.walk(program))

    def snapshot(self, program: Program) -> dict:
        """A structural copy of the subtree's data (for differential
        testing of fused vs unfused executions). Iterative, like
        :meth:`walk`: children are snapshotted bottom-up through an
        explicit stack so arbitrarily deep trees never hit the
        recursion limit."""
        done: dict[int, dict] = {}
        stack: list[tuple["Node", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for field_name, field in program.fields_of(
                    node.type_name
                ).items():
                    child = node.fields[field_name] if field.is_child else None
                    if field.is_child and child is not None:
                        stack.append((child, False))
                continue
            data = {"__type__": node.type_name}
            for field_name, field in program.fields_of(node.type_name).items():
                value = node.fields[field_name]
                if field.is_child:
                    data[field_name] = (
                        None if value is None else done[id(value)]
                    )
                elif isinstance(value, ObjectValue):
                    data[field_name] = (value.class_name, dict(value.members))
                else:
                    data[field_name] = value
            done[id(node)] = data
        return done[id(self)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.type_name}@{self.address:#x})"
