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
forward. Dynamic type tags are integer indices into a per-program
``type_table`` (every tree type registered up front, sorted, so tag
assignment is deterministic and dispatch dicts are int-keyed).

What a pool needs of the program — the tags, the columns, each type's
child and data fields — is the program's
:class:`~repro.runtime.heap.PoolPlan`, computed once in its
:class:`~repro.runtime.heap.TypeTable`. A row is written and read
through its own type's field names only; the columns a type lacks hold
``None``, filled in one extend per tree.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.program import Program
from repro.runtime.heap import Heap, TypeTable, type_table
from repro.runtime.node import Node
from repro.runtime.values import ObjectValue, copy_value


def column_names(program: Program) -> list[str]:
    """The union of field names across every tree type, sorted — the
    pool's column set and the pooled module's binding order."""
    return list(type_table(program).pool_plan.columns)


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
        self._adopt(type_table(program))
        self.tags: list[int] = []
        self.columns: dict[str, list] = {
            name: [] for name in self._plan.columns
        }
        self.roots: list[int] = []
        self.nodes: list[Optional[Node]] = []

    def _adopt(self, table: TypeTable) -> None:
        """Read the program's table and plan (shared, never pickled)."""
        self._table = table
        self._plan = table.pool_plan
        self.type_table: list[str] = self._plan.type_names
        self.object_columns: frozenset[str] = self._plan.object_columns

    def __len__(self) -> int:
        return len(self.tags)

    def type_id(self, type_name: str) -> int:
        return self._plan.type_ids[type_name]

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
        shapes = self._plan.shapes
        base = len(self.tags)
        order: list[Node] = []
        row_shapes = []
        # (child field, parent row, child row): a child's row is known
        # when it is popped, before the columns have grown to hold it
        links: list[tuple[str, int, int]] = []
        stack: list[tuple[Node, Optional[str], int]] = [(root, None, base)]
        while stack:
            node, link, parent = stack.pop()
            row = base + len(order)
            if link is not None:
                links.append((link, parent, row))
            shape = shapes[node.type_name]
            order.append(node)
            row_shapes.append(shape)
            fields = node.fields
            for name in reversed(shape.children):
                child = fields[name]
                if child is not None:
                    stack.append((child, name, row))
        self.tags.extend([shape.tag for shape in row_shapes])
        self.nodes.extend(order)
        columns = self.columns
        filler = [None] * len(order)
        for column in columns.values():
            column.extend(filler)
        for row, (node, shape) in enumerate(zip(order, row_shapes), base):
            fields = node.fields
            for name in shape.data:
                columns[name][row] = fields[name]
        for name, parent, row in links:
            columns[name][parent] = row
        self.roots.append(base)
        return base

    def new(self, type_name: str) -> int:
        """Allocate one default-initialized row (what a generated ``new``
        statement calls); the row has no backing node until
        :meth:`write_back` materializes one."""
        fields = self._table.new_fields(type_name)
        index = len(self.tags)
        self.tags.append(self._plan.type_ids[type_name])
        self.nodes.append(None)
        columns = self.columns
        for column in columns.values():
            column.append(None)
        for name, value in fields.items():
            columns[name][index] = value
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
        twin._adopt(self._table)
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
        tags = self.tags
        for index, node in enumerate(nodes):
            if node is None:
                nodes[index] = Node.new(
                    program, heap, self.type_table[tags[index]]
                )
        columns = self.columns
        shapes = self._plan.shapes_by_tag
        for index, (node, tag) in enumerate(zip(nodes, tags)):
            shape = shapes[tag]
            fields = node.fields
            for name in shape.data:
                fields[name] = columns[name][index]
            for name in shape.children:
                child = columns[name][index]
                fields[name] = None if child is None else nodes[child]
        return nodes

    def to_tree(self, heap: Heap, index: int) -> Node:
        """Materialize the subtree rooted at row *index* as a fresh node
        tree on *heap* (values copied — the pool stays untouched)."""
        program = self.program
        columns = self.columns
        shapes = self._plan.shapes_by_tag
        order: list[int] = []
        stack = [index]
        while stack:
            row = stack.pop()
            order.append(row)
            for name in reversed(shapes[self.tags[row]].children):
                child = columns[name][row]
                if child is not None:
                    stack.append(child)
        made = {
            row: Node.new(program, heap, self.type_name(row))
            for row in order
        }
        for row in order:
            fields = made[row].fields
            for name, is_child in shapes[self.tags[row]].fields:
                value = columns[name][row]
                if is_child:
                    fields[name] = None if value is None else made[value]
                else:
                    fields[name] = copy_value(value)
        return made[index]

    def snapshot(self, index: int) -> dict:
        """Structural snapshot of the subtree at row *index*, matching
        :meth:`repro.runtime.node.Node.snapshot` byte for byte — the
        differential tests diff the two directly."""
        columns = self.columns
        shapes = self._plan.shapes_by_tag
        done: dict[int, dict] = {}
        stack: list[tuple[int, bool]] = [(index, False)]
        while stack:
            row, expanded = stack.pop()
            shape = shapes[self.tags[row]]
            if not expanded:
                stack.append((row, True))
                for name in shape.children:
                    child = columns[name][row]
                    if child is not None:
                        stack.append((child, False))
                continue
            data = {"__type__": self.type_table[shape.tag]}
            for name, is_child in shape.fields:
                value = columns[name][row]
                if is_child:
                    data[name] = None if value is None else done[value]
                elif isinstance(value, ObjectValue):
                    data[name] = (value.class_name, dict(value.members))
                else:
                    data[name] = value
            done[row] = data
        return done[index]

    # -- pickling --------------------------------------------------------

    def __getstate__(self):
        # backing nodes are transport-hostile (and meaningless in
        # another process) — a restored pool is a value, like a clone;
        # the type table does not pickle, and the restored pool finds
        # it again through its program
        return {
            "program": self.program,
            "tags": self.tags,
            "columns": self.columns,
            "roots": self.roots,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.nodes = [None] * len(self.tags)
        self._adopt(type_table(self.program))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ForestPool({self.program.name!r}, rows={len(self.tags)}, "
            f"trees={len(self.roots)})"
        )
