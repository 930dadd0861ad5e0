"""Incremental compilation: per-unit invalidation and byte-identity.

The contract under test (ISSUE 4 tentpole): after editing one traversal
in a multi-traversal workload, only the dirtied units re-run
analysis/fusion/emit — the rest load from the unit store — and the
assembled module is byte-identical to a from-scratch cold compile of
the edited source. Option changes and pure-impl changes must dirty
exactly the unit classes that depend on them.
"""

import pytest

from repro.fusion.grouping import FusionLimits
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from tests.fixtures import fresh_store, source_workload

# two traversals with disjoint recursion (f walks a, g walks b), so the
# per-type singleton sequences give several independent fused units
SOURCE_V1 = """
_tree_ class N {
    _child_ N* a;
    _child_ N* b;
    int x = 0;
    int y = 0;
    _traversal_ virtual void f() {}
    _traversal_ virtual void g() {}
};
_tree_ class I : public N {
    _traversal_ void f() { this->a->f(); this->x = this->x + 1; }
    _traversal_ void g() { this->b->g(); this->y = this->y + 2; }
};
_tree_ class L : public N { };
int main() { N* root = ...; root->f(); root->g(); }
"""

# a *computation-only* edit to one traversal (g adds 3 instead of 2):
# access structure unchanged, so every dependence/fusion unit stays warm
SOURCE_V2_CONST = SOURCE_V1.replace(
    "this->y = this->y + 2;", "this->y = this->y + 3;"
)

# an *access-changing* edit to the same traversal (g now also reads x):
# sequences that can reach I::g must re-plan
SOURCE_V2_ACCESS = SOURCE_V1.replace(
    "this->y = this->y + 2;", "this->y = this->y + this->x;"
)


def _compile(source, store, **kwargs):
    return pipeline_compile(source, store=store, **kwargs)


def _counters(result, pass_name):
    timing = next(t for t in result.timings if t.name == pass_name)
    return (
        timing.detail.get("unit_hits", 0),
        timing.detail.get("unit_misses", 0),
    )


def _cold(source, **kwargs):
    return pipeline_compile(source, store=None, **kwargs)


class TestSingleEdit:
    def test_constant_edit_reuses_every_plan_and_reemits_only_dirty(self):
        store = fresh_store()
        _compile(SOURCE_V1, store)
        edited = _compile(SOURCE_V2_CONST, store)
        assert not edited.cache_hit

        # analysis: only the edited method recollects
        hits, misses = _counters(edited, "access-analysis")
        assert misses == 1 and hits > 0
        # dependence + fusion: access structure unchanged -> all warm
        assert _counters(edited, "dependence")[1] == 0
        assert _counters(edited, "fusion")[1] == 0
        # emit: the edited method function plus the fused units whose
        # closures reach I::g re-emit; everything else reloads
        hits, misses = _counters(edited, "emit")
        assert hits > 0 and misses > 0
        dirty = {
            key
            for key in edited.fused.units
            if "I::g" in key  # closures of these sequences reach the edit
        }
        # one dirtied module function per dirty fused unit + 1 method
        assert misses == len(dirty) + 1

    def test_constant_edit_is_byte_identical_to_cold_compile(self):
        store = fresh_store()
        _compile(SOURCE_V1, store)
        edited = _compile(SOURCE_V2_CONST, store)
        cold = _cold(SOURCE_V2_CONST)
        assert edited.fused_source == cold.fused_source
        assert edited.unfused_source == cold.unfused_source
        # and the edit is actually in the output
        assert "+ 3" in edited.fused_source

    def test_access_edit_dirties_reaching_plans_only(self):
        store = fresh_store()
        _compile(SOURCE_V1, store)
        edited = _compile(SOURCE_V2_ACCESS, store)
        _, fusion_misses = _counters(edited, "fusion")
        fusion_hits, _ = _counters(edited, "fusion")
        reaching = {
            key for key in edited.fused.units if "I::g" in key
        }
        assert fusion_misses == len(reaching)
        assert fusion_hits == len(edited.fused.units) - len(reaching)
        cold = _cold(SOURCE_V2_ACCESS)
        assert edited.fused_source == cold.fused_source

    def test_edited_units_execute_the_new_code(self):
        # replayed structures must bind *current* statements — run the
        # recompiled module and check the new constant took effect
        from repro.runtime import Heap, Node

        store = fresh_store()
        _compile(SOURCE_V1, store)
        edited = _compile(SOURCE_V2_CONST, store)
        program = edited.program
        heap = Heap(program)
        leaf = Node.new(program, heap, "L")
        root = Node.new(program, heap, "I", a=leaf, b=leaf)
        context = edited.compiled_fused.run_fused(heap, root)
        assert root.get("y") == 3  # the v2 constant, not v1's 2
        assert context is not None


class TestOptionAndImplInvalidation:
    def test_limits_change_dirties_plans_but_not_graphs_or_methods(self):
        store = fresh_store()
        _compile(SOURCE_V1, store)
        swept = _compile(
            SOURCE_V1,
            store,
            options=CompileOptions(limits=FusionLimits(max_repeat=3)),
        )
        assert not swept.cache_hit
        # plans are keyed on the limits -> all miss
        assert _counters(swept, "fusion")[0] == 0
        # dependence structures are limits-independent -> all hit
        assert _counters(swept, "dependence")[1] == 0
        # unfused method emission is plan-independent -> all hit
        hits, misses = _counters(swept, "emit")
        assert hits >= len(list(swept.program.all_methods()))

    def test_impl_rebinding_keeps_every_unit_warm(self):
        # unit artifacts never embed impls (generated code calls
        # RT.pure at run time), so rebinding impls dirties only the
        # whole-result key
        source = """
        _pure_ int boost(int a);
        _tree_ class N {
            _child_ N* kid;
            int x = 0;
            _traversal_ virtual void f() {}
        };
        _tree_ class I : public N {
            _traversal_ void f() { this->x = boost(this->x); this->kid->f(); }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->f(); }
        """
        store = fresh_store()
        first = _compile(
            source_workload(source, {"boost": lambda a: a + 1}), store
        )
        second = _compile(
            source_workload(source, {"boost": lambda a: a * 2}), store
        )
        assert first.source_hash != second.source_hash
        assert not second.cache_hit
        for pass_name in ("access-analysis", "dependence", "fusion", "emit"):
            assert _counters(second, pass_name)[1] == 0, pass_name
        assert second.fused_source == first.fused_source


class TestRecompileSurface:
    def test_session_recompile_reuses_units_and_reports(self):
        import repro

        with repro.Session() as session:
            first = session.compile(SOURCE_V1)
            assert not first.result.cache_hit
            again = session.recompile(SOURCE_V1)
        # recompile bypasses the whole-result cache but the unit layer
        # serves every pass
        assert not again.result.cache_hit
        assert _counters(again.result, "fusion")[1] == 0
        assert _counters(again.result, "emit")[1] == 0
        assert again.result.fused_source == first.result.fused_source
        report = again.result.unit_report()
        for pass_name in ("access-analysis", "dependence", "fusion", "emit"):
            assert pass_name in report

    def test_unit_layer_disabled_without_caches(self):
        result = pipeline_compile(SOURCE_V1, store=None)
        assert "no keyed units" in result.unit_report()
        for timing in result.timings:
            assert "unit_hits" not in timing.detail


class TestDiskUnits:
    def test_units_persist_and_serve_a_fresh_memory_cache(self, tmp_path):
        first = _compile(SOURCE_V1, fresh_store(tmp_path))
        assert not first.cache_hit
        # a brand-new memory cache, result lookup bypassed: every
        # fusion/emit unit must come back from disk
        again = _compile(
            SOURCE_V1, fresh_store(tmp_path), reuse_result=False
        )
        fusion = next(t for t in again.timings if t.name == "fusion")
        emit = next(t for t in again.timings if t.name == "emit")
        assert fusion.detail["unit_misses"] == 0
        assert fusion.detail.get("unit_disk_hits", 0) > 0
        assert emit.detail["unit_misses"] == 0
        assert again.fused_source == first.fused_source

    def test_store_counts_unit_entries(self, tmp_path):
        from repro.storage import disk_tier_for

        _compile(SOURCE_V1, fresh_store(tmp_path))
        stats = disk_tier_for(str(tmp_path)).stats()
        assert stats["unit_entries"] > 0
        assert stats["unit_spills"] > 0


class TestLowerPassUnits:
    def test_lowering_is_a_cached_pre_pass(self):
        store = fresh_store()
        options = CompileOptions(lower=True, emit=False)
        first = _compile(SOURCE_V1, store, options=options)
        assert first.lowered is not None
        assert first.program.name.endswith("_treefuser")
        lower = next(t for t in first.timings if t.name == "lower")
        assert lower.detail["unit_misses"] == 1
        again = _compile(
            SOURCE_V1, store, options=options, reuse_result=False
        )
        lower = next(t for t in again.timings if t.name == "lower")
        assert lower.detail["unit_hits"] == 1
        assert again.lowered.tags == first.lowered.tags

    def test_lower_pass_skipped_by_default(self):
        result = pipeline_compile(SOURCE_V1, store=fresh_store())
        lower = next(t for t in result.timings if t.name == "lower")
        assert lower.detail == {"skipped": 1}
        assert result.lowered is None
