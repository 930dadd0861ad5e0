"""Pins the pooled round trip: ingest, write-back and pickling.

``ForestPool.from_tree`` turns a built tree into columns and
``write_back`` pushes the columns back into the nodes. Every pooled
request crosses both, so their output is pinned here against a plain
per-node reference computed in the test: two fixed specs per workload
and the trees of fuzz seeds 0-49.
"""

import json
import pathlib
import pickle

import pytest

from repro.frontend import parse_program
from repro.fuzz import generate_case
from repro.fuzz.generators import build_tree_from_dict
from repro.layout import ForestPool, column_names
from repro.runtime.heap import Heap
from repro.runtime.values import ObjectValue
from repro.workloads.astlang import astlang_spec, astlang_workload
from repro.workloads.fmm import fmm_spec, fmm_workload
from repro.workloads.kdtree import kdtree_spec, kdtree_workload
from repro.workloads.render import render_spec, render_workload

WORKLOADS = {
    "render": (
        render_workload,
        [render_spec(pages=2, seed=1), render_spec(pages=5, seed=9)],
    ),
    "astlang": (
        astlang_workload,
        [astlang_spec(functions=4, seed=2), astlang_spec(functions=9, seed=5)],
    ),
    "kdtree": (
        kdtree_workload,
        [kdtree_spec(depth=4, seed=3), kdtree_spec(depth=6, seed=11)],
    ),
    "fmm": (
        fmm_workload,
        [fmm_spec(particles=64, seed=4), fmm_spec(particles=150, seed=8)],
    ),
}

FUZZ_SEEDS = range(50)


def _corpus_depth() -> int:
    seeds = pathlib.Path(__file__).resolve().parents[1] / "fuzz" / "seeds.json"
    return json.loads(seeds.read_text())["max_depth"]


def _workload_trees(name):
    """(program, heap, [tree per spec]) on one heap."""
    factory, specs = WORKLOADS[name]
    workload = factory()
    program = workload.source
    heap = Heap(program)
    return program, heap, [
        workload.build_tree(program, heap, spec) for spec in specs
    ]


def _fuzz_trees(seed):
    """(program, heap, [the case's tree, built twice])."""
    case = generate_case(seed, max_depth=_corpus_depth())
    program = parse_program(case.source, name=f"fuzz-{seed}")
    heap = Heap(program)
    return program, heap, [
        build_tree_from_dict(program, heap, case.tree) for _ in range(2)
    ]


CASES = [("workload", name) for name in sorted(WORKLOADS)] + [
    ("fuzz", seed) for seed in FUZZ_SEEDS
]


def _trees(case):
    kind, key = case
    return _workload_trees(key) if kind == "workload" else _fuzz_trees(key)


def _case_id(case):
    kind, key = case
    return f"{kind}-{key}"


def _reference(program, roots):
    """The forest in columns, one node at a time: rows in preorder, tags
    indexing the sorted type names, a child as its row, ``None`` where
    a row's type has no such field."""
    type_ids = {
        name: tag for tag, name in enumerate(sorted(program.tree_types))
    }
    nodes = [node for root in roots for node in root.walk(program)]
    row_of = {id(node): row for row, node in enumerate(nodes)}
    columns = {name: [] for name in column_names(program)}
    for node in nodes:
        fields = program.fields_of(node.type_name)
        for name, column in columns.items():
            field = fields.get(name)
            value = None if field is None else node.fields[name]
            if field is not None and field.is_child and value is not None:
                value = row_of[id(value)]
            column.append(value)
    root_rows = [row_of[id(root)] for root in roots]
    return nodes, [type_ids[node.type_name] for node in nodes], columns, root_rows


@pytest.mark.parametrize("case", CASES, ids=_case_id)
class TestPoolRoundTrip:
    def test_from_tree_columns_match_the_reference(self, case):
        program, _, roots = _trees(case)
        for root in roots:
            pool = ForestPool.from_tree(program, root)
            nodes, tags, columns, root_rows = _reference(program, [root])
            assert pool.tags == tags
            assert pool.roots == root_rows == [0]
            assert sorted(pool.columns) == column_names(program)
            for name, column in pool.columns.items():
                assert len(column) == len(pool.tags), name
                assert column == columns[name], name
            for row, node in enumerate(nodes):
                fields = program.fields_of(node.type_name)
                for name, column in pool.columns.items():
                    field = fields.get(name)
                    if field is None:
                        assert column[row] is None, (row, name)
                    elif not field.is_child:
                        # the node's own value, not a copy
                        assert column[row] is node.fields[name], (row, name)

    def test_nodes_and_snapshot_follow_the_walk(self, case):
        program, _, roots = _trees(case)
        for root in roots:
            pool = ForestPool.from_tree(program, root)
            assert pool.nodes == list(root.walk(program))
            assert pool.snapshot(0) == root.snapshot(program)

    def test_write_back_without_a_run_keeps_every_object(self, case):
        program, heap, roots = _trees(case)
        for root in roots:
            before = [
                (node, dict(node.fields)) for node in root.walk(program)
            ]
            footprint = heap.footprint_bytes
            pool = ForestPool.from_tree(program, root)
            nodes = pool.write_back(heap)
            assert nodes == [node for node, _ in before]
            assert heap.footprint_bytes == footprint
            for node, fields in before:
                assert list(node.fields) == list(fields)
                declared = program.fields_of(node.type_name)
                for name, value in fields.items():
                    now = node.fields[name]
                    if declared[name].is_child or isinstance(
                        value, ObjectValue
                    ):
                        assert now is value, (node.type_name, name)
                    else:
                        assert now == value, (node.type_name, name)

    def test_from_forest_offsets_the_second_tree(self, case):
        program, _, roots = _trees(case)
        pool = ForestPool.from_forest(program, roots)
        nodes, tags, columns, root_rows = _reference(program, roots)
        first = roots[0].count_nodes(program)
        assert root_rows[1] == first
        assert pool.roots == root_rows
        assert pool.tags == tags
        assert pool.nodes == nodes
        assert pool.columns == columns
        for root, row in zip(roots, pool.roots):
            assert pool.snapshot(row) == root.snapshot(program)

    def test_pickle_round_trip_is_a_value(self, case):
        program, _, roots = _trees(case)
        pool = ForestPool.from_forest(program, roots)
        restored = pickle.loads(pickle.dumps(pool))
        assert restored.nodes == [None] * len(pool)
        assert restored.tags == pool.tags
        assert restored.roots == pool.roots
        assert restored.type_table == pool.type_table
        assert restored.columns == pool.columns
        for row in pool.roots:
            assert restored.snapshot(row) == pool.snapshot(row)
        # a restored pool still allocates rows, and pickles again
        concrete = program.concrete_subtypes_all()[0]
        row = restored.new(concrete)
        assert restored.type_name(row) == concrete
        for column in restored.columns.values():
            assert len(column) == len(restored.tags)
        again = pickle.loads(pickle.dumps(restored))
        assert again.columns == restored.columns
