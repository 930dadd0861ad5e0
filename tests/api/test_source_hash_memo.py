"""A workload's source hash is computed once per instance.

Hashing a ``Program`` prints it, and a served request asks for the
hash twice (grouping, then the compile lookup). ``Workload`` memoizes
it and ``pipeline.compile`` takes it from the workload; an edited
workload made with ``dataclasses.replace`` is a new instance and hashes
afresh.
"""

import dataclasses
import pickle

import repro
import repro.ir.printer as printer
from repro.frontend import parse_program
from repro.workloads.render import render_spec, render_workload

ANCHOR = "this->FontSize = (size - 1);"


def _edited(workload):
    """*workload* with one literal of one traversal changed."""
    original = workload.source
    text = printer.print_program(original)
    assert text.count(ANCHOR) == 1
    impls = {
        name: func.impl
        for name, func in original.pure_functions.items()
        if func.impl is not None
    }
    program = parse_program(
        text.replace(ANCHOR, "this->FontSize = (size - 3);"),
        name=original.name,
        pure_impls=impls,
    )
    return dataclasses.replace(workload, source=program)


def _count_prints(monkeypatch) -> list:
    printed = []
    real = printer.print_program

    def counting(program):
        printed.append(program)
        return real(program)

    monkeypatch.setattr(printer, "print_program", counting)
    return printed


def test_compiling_and_serving_a_workload_prints_it_once(monkeypatch):
    workload = render_workload()
    spec = render_spec(pages=2, seed=4)
    printed = _count_prints(monkeypatch)
    # a budgeted session has its own memory tier: the compile is cold
    with repro.Session(workers=1, memory_budget=64 << 20) as session:
        compiled = session.compile(workload)
        assert not compiled.cache_hit
        session.run(workload, [spec, spec])
        session.run(workload, [spec])
        session.run(workload, [spec], mode="interpret")
    assert printed == [workload.source]


def test_the_memo_stays_in_its_process():
    workload = render_workload()
    digest = workload.source_hash()
    restored = pickle.loads(pickle.dumps(workload))
    assert "_source_hash" not in vars(restored)
    assert restored.source_hash() == digest


def test_an_edited_workload_hashes_afresh_and_serves_the_edit():
    workload = render_workload()
    spec = render_spec(pages=2, seed=4)
    original_hash = workload.source_hash()
    edited = _edited(workload)
    assert edited.source_hash() != original_hash
    assert workload.source_hash() == original_hash
    with repro.Session(workers=1) as session:
        before = session.run(workload, [spec]).summaries
        served = session.run(edited, [spec]).summaries
        expected = session.run(edited, [spec], mode="interpret").summaries
    assert served == expected
    assert served != before
