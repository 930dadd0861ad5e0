"""Budget knobs must never resize the process-shared memory tier."""

import repro
from repro.pipeline import GLOBAL_CACHE
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Node
from repro.runtime.values import ObjectValue

from tests.fixtures import FIG2_SOURCE


def _text_chain(program, heap, lengths):
    node = Node.new(program, heap, "End")
    for length in reversed(lengths):
        node = Node.new(
            program, heap, "TextBox",
            Text=ObjectValue("String", {"Length": length}), Next=node,
        )
    return node


def test_memory_budget_never_resizes_global_cache():
    before = GLOBAL_CACHE.max_bytes
    pipeline_compile(FIG2_SOURCE)
    with repro.Session(memory_budget=1000) as session:
        session.compile(FIG2_SOURCE)
    assert GLOBAL_CACHE.max_bytes == before, (
        "one caller's budget must not evict every other caller's "
        "results"
    )
    assert pipeline_compile(FIG2_SOURCE).cache_hit


def test_session_memory_budget_gets_a_private_tier():
    before = GLOBAL_CACHE.max_bytes
    with repro.Session(memory_budget=64 * 1024 * 1024) as session:
        compiled = session.compile(FIG2_SOURCE)
        assert compiled.result.fused is not None
        assert session.memory is not GLOBAL_CACHE
        assert session.memory.max_bytes == 64 * 1024 * 1024
        # the session's own compiles land in its own tier
        assert session.stats()["compile_cache"]["entries"] >= 1
    assert GLOBAL_CACHE.max_bytes == before


def test_budgeted_session_runs_on_its_own_tier():
    # a source no other test compiles, so the process-wide tier cannot
    # already hold its result
    workload = repro.Workload.from_source(
        "budgeted",
        FIG2_SOURCE + "\n// compiled only by the budgeted-session test\n",
        _text_chain,
        globals_map={"CHAR_WIDTH": 2},
    )
    results_before = len(GLOBAL_CACHE)
    with repro.Session(memory_budget=64 * 1024 * 1024) as session:
        session.compile(workload)
        outcome = session.run(workload, [[3, 5], [4]])
        [batch] = session.executor.batches
    assert len(outcome) == 2
    assert batch.compile_cache_hit, "the run recompiled cold"
    assert len(GLOBAL_CACHE) == results_before


def test_privately_owned_cache_honors_the_budget():
    with repro.Session(memory_budget=12345) as session:
        # the budgeted tier is the one every compile's store goes through
        assert session.tiers.memory is session.memory
        assert session.memory.max_bytes == 12345


def test_disk_budget_is_a_per_store_setting(tmp_path):
    from repro.storage import disk_tier_for

    with repro.Session(str(tmp_path), disk_budget=7 * 1024 * 1024) as session:
        session.compile(FIG2_SOURCE)
    assert disk_tier_for(str(tmp_path)).max_bytes == 7 * 1024 * 1024
