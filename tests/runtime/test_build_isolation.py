"""Builds share nothing a traversal can change.

Every node of a program starts as a copy of its type's template in the
program's :class:`~repro.runtime.heap.TypeTable`. A template handed out
twice — one fields dict, one ``ObjectValue`` or one members dict in two
nodes — would let a traversal's write to one tree show up in another,
so served answers would depend on what was built before them. These
tests check each way a node or row comes to be, and then the served
answers themselves against the interpreter's, with specs repeated and
programs interleaved as a serving loop sees them.
"""

import random
import sys
import threading

import pytest

import repro
from repro.errors import RuntimeFailure
from repro.layout import ForestPool
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Heap, Node, ObjectValue
from repro.storage import MemoryTier
from repro.storage.base import encode
from repro.workloads.astlang import astlang_spec, astlang_workload
from repro.workloads.fmm import fmm_spec, fmm_workload
from repro.workloads.kdtree import kdtree_spec, kdtree_workload
from repro.workloads.render import render_spec, render_workload

from tests.fixtures import fig2_program

WORKLOADS = {
    "render": (render_workload, render_spec),
    "astlang": (astlang_workload, astlang_spec),
    "kdtree": (kdtree_workload, kdtree_spec),
    "fmm": (fmm_workload, fmm_spec),
}

# three specs per program, small enough to interpret quickly
SPEC_POOLS = {
    "render": [render_spec(pages=n, seed=s) for n, s in ((1, 2), (2, 5), (3, 8))],
    "astlang": [astlang_spec(functions=n, seed=s)
                for n, s in ((2, 1), (4, 6), (5, 9))],
    "kdtree": [kdtree_spec(depth=n, seed=s) for n, s in ((3, 4), (4, 7), (5, 2))],
    "fmm": [fmm_spec(particles=n, seed=s) for n, s in ((24, 3), (40, 6), (64, 1))],
}


def assert_unshared(field_dicts) -> int:
    """No fields dict, ``ObjectValue`` or members dict appears twice.
    Returns how many opaque values were checked."""
    seen: set[int] = set()
    objects = 0

    def claim(obj, what):
        assert id(obj) not in seen, f"two nodes share one {what}"
        seen.add(id(obj))

    for fields in field_dicts:
        claim(fields, "fields dict")
        for value in fields.values():
            if isinstance(value, ObjectValue):
                claim(value, "ObjectValue")
                claim(value.members, "members dict")
                objects += 1
    return objects


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_built_nodes_share_no_mutable_state(name):
    factory, make_spec = WORKLOADS[name]
    workload = factory()
    program = workload.source
    nodes = []
    for _ in range(2):  # the same spec twice, on two heaps
        heap = Heap(program)
        root = workload.build_tree(program, heap, make_spec())
        nodes.extend(root.walk(program))
    heap = Heap(program)
    for type_name in program.concrete_subtypes_all():
        nodes.append(Node.new(program, heap, type_name))
        nodes.append(Node.new(program, heap, type_name))
    assert_unshared(node.fields for node in nodes)


def test_default_opaque_values_are_fresh_per_node():
    # render is the workload with opaque fields (String, BorderInfo)
    program = render_workload().source
    heap = Heap(program)
    nodes = [
        Node.new(program, heap, type_name)
        for type_name in program.concrete_subtypes_all()
        for _ in range(3)
    ]
    assert assert_unshared(node.fields for node in nodes) > 0
    first = next(
        node for node in nodes
        if any(isinstance(v, ObjectValue) for v in node.fields.values())
    )
    name, value = next(
        (k, v) for k, v in first.fields.items() if isinstance(v, ObjectValue)
    )
    member = next(iter(value.members))
    value.set(member, 99)
    again = Node.new(program, heap, first.type_name)
    assert again.fields[name].get(member) != 99


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_rows_and_written_back_nodes_share_no_mutable_state(name):
    factory, make_spec = WORKLOADS[name]
    workload = factory()
    program = workload.source
    heap = Heap(program)
    pool = ForestPool.from_tree(
        program, workload.build_tree(program, heap, make_spec())
    )
    fresh = [
        pool.new(type_name)
        for type_name in program.concrete_subtypes_all()
        for _ in range(2)
    ]
    row_objects = [
        pool.columns[column][row]
        for row in fresh
        for column in sorted(pool.object_columns)
        if isinstance(pool.columns[column][row], ObjectValue)
    ]
    assert len({id(value) for value in row_objects}) == len(row_objects)
    assert len({id(value.members) for value in row_objects}) == len(
        row_objects
    )
    nodes = pool.write_back(heap)
    assert all(nodes[row] is not None for row in fresh)
    assert_unshared(node.fields for node in nodes)


def test_node_new_keeps_its_error_messages():
    program = fig2_program()
    heap = Heap(program)
    cases = (
        (("Nope",), {}, "cannot instantiate unknown type 'Nope'"),
        (("Element",), {}, "cannot instantiate abstract type Element"),
        (("End",), {"Bogus": 1}, "End has no field 'Bogus'"),
    )
    for args, overrides, message in cases:
        with pytest.raises(RuntimeFailure) as caught:
            Node.new(program, heap, *args, **overrides)
        assert str(caught.value) == message
    pool = ForestPool(program)
    for (type_name,), _, message in cases[:2]:
        with pytest.raises(RuntimeFailure) as caught:
            pool.new(type_name)
        assert str(caught.value) == message


def test_stored_result_bytes_do_not_change_when_trees_are_built():
    # the type table lives beside the Program, never on it: a result
    # published after trees were built from its program (cold-start
    # interprets, then compiles the same Program object) pickles the same
    workload = render_workload()
    result = pipeline_compile(workload, cache=MemoryTier())
    assert result.program is workload.source
    before = encode("result", result)
    for spec in SPEC_POOLS["render"]:
        heap = Heap(result.program)
        workload.build_tree(result.program, heap, spec)
    assert encode("result", result) == before


@pytest.mark.parametrize("layout", ["object", "pooled"])
def test_served_answers_match_interpreted_answers(layout):
    workloads = {name: WORKLOADS[name][0]() for name in WORKLOADS}
    with repro.Session(workers=1) as session:
        refs = {
            name: session.run(
                workloads[name], SPEC_POOLS[name], mode="interpret"
            ).summaries
            for name in WORKLOADS
        }
    rng = random.Random(18)
    programs = sorted(WORKLOADS)
    with repro.Session(workers=1, layout=layout) as session:
        for step in range(16):
            name = programs[step % len(programs)]
            picks = [rng.randrange(3) for _ in range(rng.randint(2, 6))]
            outcome = session.run(
                workloads[name], [SPEC_POOLS[name][i] for i in picks]
            )
            assert outcome.summaries == [refs[name][i] for i in picks], (
                f"step {step}: {name} forest {picks}"
            )


def test_threads_building_a_new_program_share_one_table():
    # executor worker threads build trees of one program at once; their
    # first builds race to make its type table, and all must get one
    program = fig2_program()  # parsed afresh: it has no table yet
    barrier = threading.Barrier(8)
    heaps, nodes, errors = [], [], []

    def build():
        try:
            barrier.wait(timeout=10)
            heap = Heap(program)
            for _ in range(20):
                for type_name in program.concrete_subtypes_all():
                    nodes.append(Node.new(program, heap, type_name))
            heaps.append(heap)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(heaps) == 8
    assert len({id(heap.table) for heap in heaps}) == 1
    assert assert_unshared(node.fields for node in nodes) > 0
