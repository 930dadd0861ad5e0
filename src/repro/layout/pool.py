"""Structure-of-arrays forest pools.

A :class:`ForestPool` serializes a tree (or a whole batch's forest) into
flat, parallel pools: one Python list per schema field name (a
*column*), a list of integer type tags, and child links as integer row
indices. The pooled codegen backend
(:mod:`repro.codegen.pooled_backend`) compiles traversals directly
against the columns — ``this.fields['W']`` becomes ``_c_W[this]`` with
``this`` a row index — so batched execution allocates nothing per
request (clone the pool, run, write back) and the representation
pickles without walking an object graph.

Row order is DFS preorder of each added tree, the order fused
traversals visit nodes, so consecutive accesses walk the columns mostly
forward. Dynamic type tags are integer indices into a per-pool
``type_table`` (every tree type registered up front, sorted, so tag
assignment is deterministic and dispatch dicts are int-keyed).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.program import Program
from repro.ir.types import is_primitive
from repro.runtime.heap import Heap, type_table
from repro.runtime.node import Node
from repro.runtime.values import ObjectValue, copy_value


def column_names(program: Program) -> list[str]:
    """The union of field names across every tree type, sorted — the
    pool's column set and the pooled module's binding order."""
    names: set[str] = set()
    for type_name in program.tree_types:
        names.update(program.fields_of(type_name))
    return sorted(names)


class ForestPool:
    """One forest in structure-of-arrays form.

    * ``tags[i]`` — integer type tag of row *i* (index into
      ``type_table``)
    * ``columns[name][i]`` — row *i*'s value for field *name*: a child
      row index (or ``None``), a primitive, or an :class:`ObjectValue`;
      ``None`` filler where row *i*'s type has no such field
    * ``roots`` — row indices of the added trees, in add order
    * ``nodes[i]`` — the original :class:`Node` behind row *i*
      (``None`` for rows allocated by generated code via :meth:`new`);
      dropped on :meth:`clone` and on pickling
    """

    def __init__(self, program: Program):
        program.finalize()
        self.program = program
        self.type_table: list[str] = sorted(program.tree_types)
        self._type_ids = {
            name: tag for tag, name in enumerate(self.type_table)
        }
        self.tags: list[int] = []
        self.columns: dict[str, list] = {
            name: [] for name in column_names(program)
        }
        self.roots: list[int] = []
        self.nodes: list[Optional[Node]] = []
        self.object_columns = frozenset(
            name
            for type_name in program.tree_types
            for name, field in program.fields_of(type_name).items()
            if not field.is_child and not is_primitive(field.type_name)
        )

    def __len__(self) -> int:
        return len(self.tags)

    def type_id(self, type_name: str) -> int:
        return self._type_ids[type_name]

    def type_name(self, index: int) -> str:
        return self.type_table[self.tags[index]]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_tree(cls, program: Program, root: Node) -> "ForestPool":
        pool = cls(program)
        pool.add_tree(root)
        return pool

    @classmethod
    def from_forest(cls, program: Program, roots) -> "ForestPool":
        pool = cls(program)
        for root in roots:
            pool.add_tree(root)
        return pool

    def add_tree(self, root: Node) -> int:
        """Serialize one tree into the pool (rows in DFS preorder);
        returns the root's row index and records it in ``roots``."""
        program = self.program
        base = len(self.tags)
        order: list[Node] = []
        index_of: dict[int, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = base + len(order)
            order.append(node)
            children = [
                node.fields[name]
                for name, field in program.fields_of(
                    node.type_name
                ).items()
                if field.is_child and node.fields[name] is not None
            ]
            stack.extend(reversed(children))
        for node in order:
            fields = program.fields_of(node.type_name)
            self.tags.append(self._type_ids[node.type_name])
            self.nodes.append(node)
            for name, column in self.columns.items():
                field = fields.get(name)
                if field is None:
                    column.append(None)
                elif field.is_child:
                    child = node.fields[name]
                    column.append(
                        None if child is None else index_of[id(child)]
                    )
                else:
                    column.append(node.fields[name])
        self.roots.append(index_of[id(root)])
        return index_of[id(root)]

    def new(self, type_name: str) -> int:
        """Allocate one default-initialized row (what a generated ``new``
        statement calls); the row has no backing node until
        :meth:`write_back` materializes one."""
        fields = type_table(self.program).new_fields(type_name)
        index = len(self.tags)
        self.tags.append(self._type_ids[type_name])
        self.nodes.append(None)
        for name, column in self.columns.items():
            column.append(fields.get(name))
        return index

    # -- accessors -------------------------------------------------------

    def make_indexer(self, name: str) -> Callable[[int], object]:
        """A closure reading column *name* by row index (the
        torchinductor ``make_indexer`` idiom — hands callers the bound
        list method, no attribute or dict hop per access)."""
        return self.columns[name].__getitem__

    def make_writer(self, name: str) -> Callable[[int, object], None]:
        """The writing twin of :meth:`make_indexer`."""
        return self.columns[name].__setitem__

    # -- round-trips -----------------------------------------------------

    def clone(self) -> "ForestPool":
        """An independent copy sharing no mutable state: primitive/child
        columns copy by slice, object columns element-wise (value
        semantics). Backing nodes are dropped — a clone exists to be run
        and read out, not written back into someone else's tree."""
        twin = ForestPool.__new__(ForestPool)
        twin.program = self.program
        twin.type_table = self.type_table
        twin._type_ids = self._type_ids
        twin.object_columns = self.object_columns
        twin.tags = list(self.tags)
        twin.roots = list(self.roots)
        twin.nodes = [None] * len(self.tags)
        twin.columns = {
            name: (
                [copy_value(value) for value in column]
                if name in self.object_columns
                else list(column)
            )
            for name, column in self.columns.items()
        }
        return twin

    def write_back(self, heap: Heap) -> list[Node]:
        """Push every row's state back into its backing :class:`Node`,
        materializing fresh nodes (on *heap*) for rows generated code
        allocated — after this, the original tree objects reflect the
        pooled run exactly as an object-graph run would have left them.
        Returns the per-row node list."""
        program = self.program
        nodes = self.nodes
        for index in range(len(self.tags)):
            if nodes[index] is None:
                nodes[index] = Node.new(
                    program, heap, self.type_table[self.tags[index]]
                )
        columns = self.columns
        for index, node in enumerate(nodes):
            node_fields = node.fields
            for name, field in program.fields_of(node.type_name).items():
                value = columns[name][index]
                if field.is_child:
                    node_fields[name] = (
                        None if value is None else nodes[value]
                    )
                else:
                    node_fields[name] = value
        return nodes

    def to_tree(self, heap: Heap, index: int) -> Node:
        """Materialize the subtree rooted at row *index* as a fresh node
        tree on *heap* (values copied — the pool stays untouched)."""
        program = self.program
        columns = self.columns
        order: list[int] = []
        stack = [index]
        while stack:
            row = stack.pop()
            order.append(row)
            fields = program.fields_of(self.type_table[self.tags[row]])
            children = [
                columns[name][row]
                for name, field in fields.items()
                if field.is_child and columns[name][row] is not None
            ]
            stack.extend(reversed(children))
        made = {
            row: Node.new(
                program, heap, self.type_table[self.tags[row]]
            )
            for row in order
        }
        for row in order:
            node = made[row]
            for name, field in program.fields_of(node.type_name).items():
                value = columns[name][row]
                if field.is_child:
                    node.fields[name] = (
                        None if value is None else made[value]
                    )
                else:
                    node.fields[name] = copy_value(value)
        return made[index]

    def snapshot(self, index: int) -> dict:
        """Structural snapshot of the subtree at row *index*, matching
        :meth:`repro.runtime.node.Node.snapshot` byte for byte — the
        differential tests diff the two directly."""
        program = self.program
        columns = self.columns
        done: dict[int, dict] = {}
        stack: list[tuple[int, bool]] = [(index, False)]
        while stack:
            row, expanded = stack.pop()
            type_name = self.type_table[self.tags[row]]
            fields = program.fields_of(type_name)
            if not expanded:
                stack.append((row, True))
                for name, field in fields.items():
                    child = columns[name][row] if field.is_child else None
                    if field.is_child and child is not None:
                        stack.append((child, False))
                continue
            data = {"__type__": type_name}
            for name, field in fields.items():
                value = columns[name][row]
                if field.is_child:
                    data[name] = None if value is None else done[value]
                elif isinstance(value, ObjectValue):
                    data[name] = (value.class_name, dict(value.members))
                else:
                    data[name] = value
            done[row] = data
        return done[index]

    # -- pickling --------------------------------------------------------

    def __getstate__(self):
        state = dict(self.__dict__)
        # backing nodes are transport-hostile (and meaningless in
        # another process) — a restored pool is a value, like a clone
        state["nodes"] = [None] * len(self.tags)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ForestPool({self.program.name!r}, rows={len(self.tags)}, "
            f"trees={len(self.roots)})"
        )
