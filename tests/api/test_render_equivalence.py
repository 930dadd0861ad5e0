"""The acceptance pin: the embedded render definition IS the string one.

The embedded frontend is only trustworthy if it is a second *spelling*
of the same program, not a dialect. These tests pin byte-level
equivalence between ``repro.workloads.render.embedded`` and the string
DSL ``RENDER_SOURCE``: same canonical print, same ``source_hash``, and
byte-identical generated Python from two independent cold compiles.
"""

from repro.ir.printer import print_program
from repro.pipeline import hash_program
from repro.pipeline import compile as pipeline_compile
from repro.workloads.render import (
    DEFAULT_GLOBALS,
    render_embedded_program,
    render_program,
    render_workload,
)
from repro.workloads.render.embedded import RENDER_EMBEDDED_GLOBALS


class TestRenderEquivalence:
    def test_canonical_print_is_identical(self):
        assert print_program(render_embedded_program()) == print_program(
            render_program()
        )

    def test_source_hash_is_identical(self):
        # impls are the *same* callables in both frontends, so the
        # content hashes agree exactly
        assert hash_program(render_embedded_program()) == hash_program(
            render_program()
        )
        assert render_workload().source_hash() == hash_program(
            render_program()
        )

    def test_field_defaults_survive_lowering(self):
        embedded, parsed = render_embedded_program(), render_program()
        for name, tree_type in parsed.tree_types.items():
            assert (
                embedded.tree_types[name].data_defaults
                == tree_type.data_defaults
            )

    def test_cold_compiles_emit_identical_modules(self):
        # two genuinely independent pipeline runs (the cache is
        # bypassed), so equality cannot come from one serving the other
        from_embedded = pipeline_compile(
            render_embedded_program(), store=None
        )
        from_string = pipeline_compile(render_program(), store=None)
        assert from_embedded.source_hash == from_string.source_hash
        assert from_embedded.fused_source == from_string.fused_source
        assert from_embedded.unfused_source == from_string.unfused_source

    def test_workload_globals_match_legacy_defaults(self):
        assert RENDER_EMBEDDED_GLOBALS == DEFAULT_GLOBALS
        assert dict(render_workload().globals_map) == DEFAULT_GLOBALS

    def test_embedded_workload_runs_the_layout(self):
        import repro

        with repro.Session(workers=1, backend="inline") as session:
            outcome = session.compile(render_workload()).run(
                trees=2, pages=2
            )
        assert len(outcome) == 2
        # identical specs -> identical layouts
        first, second = (s["snapshot_sha"] for s in outcome.summaries)
        assert first == second
