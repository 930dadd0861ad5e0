"""Degenerate deep trees must not hit the interpreter recursion limit.

``Node.walk`` and ``Node.snapshot`` used to recurse per node, so a
chain deeper than ``sys.getrecursionlimit()`` (a worst-case kd-tree, a
long document list) blew up before any traversal ran. The served
digest (``default_collect``) used to ``repr`` the nested snapshot,
which recursed the same way. All three are explicit-stack iterations
now; these tests pin that on a chain several times deeper than the
default limit.
"""

import hashlib
import sys

import pytest

from repro.runtime.heap import Heap
from repro.runtime.node import Node
from repro.service.batching import default_collect
from repro.workloads.render import render_workload

DEPTH = 4000  # several times the default recursion limit


def _chain_field(program):
    """A concrete type that can hold itself as a child, plus the child
    field name — the building block of a degenerate chain."""
    for type_name in sorted(program.tree_types):
        if program.tree_types[type_name].abstract:
            continue
        for name, field in program.fields_of(type_name).items():
            if field.is_child and type_name in program.concrete_subtypes(
                field.type_name
            ):
                return type_name, name
    raise AssertionError("schema has no self-chaining type")


@pytest.fixture(scope="module")
def deep_chain():
    program = render_workload().source
    heap = Heap(program)
    type_name, child = _chain_field(program)
    root = Node.new(program, heap, type_name)
    tip = root
    for _ in range(DEPTH - 1):
        nxt = Node.new(program, heap, type_name)
        tip.set(child, nxt)
        tip = nxt
    return program, root, child


class TestDeepChain:
    def test_depth_exceeds_recursion_limit(self):
        assert DEPTH > sys.getrecursionlimit()

    def test_walk_reaches_every_node(self, deep_chain):
        program, root, _ = deep_chain
        assert root.count_nodes(program) == DEPTH

    def test_snapshot_reaches_the_bottom(self, deep_chain):
        program, root, child = deep_chain
        snapshot = root.snapshot(program)
        depth = 0
        cursor = snapshot
        while cursor is not None:
            depth += 1
            cursor = cursor[child]
        assert depth == DEPTH

    def test_snapshot_matches_field_values(self, deep_chain):
        program, root, child = deep_chain
        snapshot = root.snapshot(program)
        assert snapshot["__type__"] == root.type_name
        for name, field in program.fields_of(root.type_name).items():
            if field.is_child or name == child:
                continue
            assert snapshot[name] is not None or root.fields[name] is None

    def test_digest_reaches_the_bottom(self, deep_chain):
        program, root, child = deep_chain
        # every link is a default node, so the nested repr is one
        # node's text opened DEPTH times around "None" and closed
        # DEPTH times
        tip = repr(Node.new(program, Heap(program), root.type_name)
                   .snapshot(program))
        cut = tip.index(f"{child!r}: None") + len(f"{child!r}: ")
        opening, closing = tip[:cut], tip[cut + len("None"):]
        text = opening * DEPTH + "None" + closing * DEPTH
        summary = default_collect(program, Heap(program), root)
        assert summary["snapshot_sha"] == hashlib.sha256(
            text.encode()
        ).hexdigest()
