"""The kd-tree twin pin: the embedded definition IS the string one.

Mirrors ``test_render_equivalence`` for the workload that needed
``static_cast`` member chains (the split blocks) — the last construct
the embedded frontend could not spell. Byte-level equivalence between
``repro.workloads.kdtree.embedded`` and the string DSL ``KD_SOURCE``:
same canonical print, same ``source_hash``, byte-identical generated
Python from independent cold compiles — for every Table 6 equation
schedule, since each splices a different entry sequence.
"""

import pytest

from repro.ir.printer import print_program
from repro.pipeline import hash_program
from repro.pipeline import compile as pipeline_compile
from repro.workloads.kdtree import (
    EQ1_SCHEDULE,
    EQ2_SCHEDULE,
    EQ3_SCHEDULE,
    KD_DEFAULT_GLOBALS,
    equation_program,
    kd_embedded_program,
    kdtree_workload,
)
from repro.workloads.kdtree.embedded import KD_EMBEDDED_GLOBALS

SCHEDULES = {
    "eq1": EQ1_SCHEDULE,
    "eq2": EQ2_SCHEDULE,
    "eq3": EQ3_SCHEDULE,
}


@pytest.mark.parametrize("label", sorted(SCHEDULES))
class TestKdtreeEquivalence:
    def test_canonical_print_is_identical(self, label):
        schedule = SCHEDULES[label]
        assert print_program(
            kd_embedded_program(schedule, name=f"kdtree-{label}")
        ) == print_program(equation_program(schedule, name=f"kdtree-{label}"))

    def test_source_hash_is_identical(self, label):
        # impls are the *same* callables in both frontends, so the
        # content hashes agree exactly
        schedule = SCHEDULES[label]
        assert hash_program(
            kd_embedded_program(schedule, name=f"kdtree-{label}")
        ) == hash_program(equation_program(schedule, name=f"kdtree-{label}"))

    def test_field_defaults_survive_lowering(self, label):
        schedule = SCHEDULES[label]
        embedded = kd_embedded_program(schedule, name=f"kdtree-{label}")
        parsed = equation_program(schedule, name=f"kdtree-{label}")
        for name, tree_type in parsed.tree_types.items():
            assert (
                embedded.tree_types[name].data_defaults
                == tree_type.data_defaults
            )

    def test_cold_compiles_emit_identical_modules(self, label):
        # two genuinely independent pipeline runs (the cache is
        # bypassed), so equality cannot come from one serving the other
        schedule = SCHEDULES[label]
        from_embedded = pipeline_compile(
            kd_embedded_program(schedule, name=f"kdtree-{label}"),
            store=None,
        )
        from_string = pipeline_compile(
            equation_program(schedule, name=f"kdtree-{label}"),
            store=None,
        )
        assert from_embedded.source_hash == from_string.source_hash
        assert from_embedded.fused_source == from_string.fused_source
        assert from_embedded.unfused_source == from_string.unfused_source


def test_workload_globals_match_legacy_defaults():
    assert KD_EMBEDDED_GLOBALS == KD_DEFAULT_GLOBALS
    assert dict(kdtree_workload().globals_map) == KD_DEFAULT_GLOBALS


def test_embedded_workload_runs_the_equation():
    import repro

    with repro.Session(workers=1, backend="inline") as session:
        outcome = session.compile(kdtree_workload()).run(trees=2, depth=4)
    assert len(outcome) == 2
    # identical specs -> identical results
    first, second = outcome.summaries
    assert first == second
