"""Content-addressed compile cache: hit/miss behavior and sharing."""

from pathlib import Path

from repro.frontend import parse_program
from repro.layout.base import layout_backend
from repro.pipeline import (
    CompileOptions,
    compile as pipeline_compile,
    hash_program,
    hash_source,
)
from repro.fusion.grouping import FusionLimits
from repro.storage import MemoryTier

from tests.fixtures import FIG1_SOURCE, FIG2_SOURCE, source_workload


class TestResultCache:
    def test_same_source_same_options_hits(self):
        cache = MemoryTier()
        cold = pipeline_compile(FIG2_SOURCE, cache=cache)
        warm = pipeline_compile(FIG2_SOURCE, cache=cache)
        assert not cold.cache_hit
        assert warm.cache_hit
        # the memoized artifacts are shared, not re-synthesized
        assert warm.fused is cold.fused
        assert warm.compiled_fused is cold.compiled_fused
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] >= 1

    def test_warm_timings_are_lookup_only_with_cold_preserved(self):
        cache = MemoryTier()
        cold = pipeline_compile(FIG2_SOURCE, cache=cache)
        warm = pipeline_compile(FIG2_SOURCE, cache=cache)
        assert [t.name for t in warm.timings] == ["cache-lookup"]
        assert warm.cold_timings is not None
        assert [t.name for t in warm.cold_timings] == [
            t.name for t in cold.timings
        ]
        # the cached record itself is untouched by the hit bookkeeping
        assert not cold.cache_hit

    def test_changed_options_miss(self):
        cache = MemoryTier()
        pipeline_compile(FIG2_SOURCE, cache=cache)
        for options in [
            CompileOptions(limits=FusionLimits(max_sequence=3)),
            CompileOptions(limits=FusionLimits(max_repeat=2)),
            CompileOptions(mode="treefuser"),
        ]:
            result = pipeline_compile(FIG2_SOURCE, cache=cache, options=options)
            assert not result.cache_hit, options

    def test_changed_source_miss(self):
        cache = MemoryTier()
        pipeline_compile(FIG2_SOURCE, cache=cache)
        result = pipeline_compile(FIG1_SOURCE, cache=cache)
        assert not result.cache_hit

    def test_emit_false_served_from_emit_true_entry(self):
        cache = MemoryTier()
        emitted = pipeline_compile(FIG2_SOURCE, cache=cache)
        fused_only = pipeline_compile(
            FIG2_SOURCE, cache=cache, options=CompileOptions(emit=False)
        )
        assert fused_only.cache_hit
        assert fused_only.fused is emitted.fused
        # the reverse direction must stay a miss: an emit=False entry
        # lacks the compiled modules an emit=True caller needs
        cache2 = MemoryTier()
        pipeline_compile(
            FIG2_SOURCE, cache=cache2, options=CompileOptions(emit=False)
        )
        full = pipeline_compile(FIG2_SOURCE, cache=cache2)
        assert not full.cache_hit
        assert full.compiled_fused is not None

    def test_use_cache_false_bypasses(self):
        cache = MemoryTier()
        pipeline_compile(FIG2_SOURCE, cache=cache)
        result = pipeline_compile(
            FIG2_SOURCE, cache=cache, options=CompileOptions(use_cache=False)
        )
        assert not result.cache_hit

    def test_clear_forgets_everything(self):
        cache = MemoryTier()
        pipeline_compile(FIG2_SOURCE, cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert not pipeline_compile(FIG2_SOURCE, cache=cache).cache_hit

    def test_lru_evicts_oldest(self):
        cache = MemoryTier(max_entries=1)
        pipeline_compile(FIG2_SOURCE, cache=cache)
        pipeline_compile(FIG1_SOURCE, cache=cache)  # evicts fig2
        assert not pipeline_compile(FIG2_SOURCE, cache=cache).cache_hit


class TestContentAddressing:
    def test_program_hash_is_structural_not_identity(self):
        a = parse_program(FIG2_SOURCE, name="a")
        b = parse_program(FIG2_SOURCE, name="b")
        assert a is not b
        assert hash_program(a) == hash_program(b)

    def test_equivalent_program_objects_share_cache_entry(self):
        cache = MemoryTier()
        cold = pipeline_compile(parse_program(FIG2_SOURCE), cache=cache)
        warm = pipeline_compile(parse_program(FIG2_SOURCE), cache=cache)
        assert warm.cache_hit
        assert warm.fused is cold.fused

    def test_source_hash_sensitive_to_text_and_impl_names(self):
        assert hash_source(FIG2_SOURCE) == hash_source(FIG2_SOURCE)
        assert hash_source(FIG2_SOURCE) != hash_source(FIG2_SOURCE + " ")
        assert hash_source(FIG2_SOURCE) != hash_source(
            FIG2_SOURCE, pure_impls={"f": len}
        )

    def test_different_pure_impls_do_not_share_cache_entry(self):
        # the callables are baked into the compiled program, so two
        # compiles of the same text with different impl objects must not
        # alias — a hit here would silently run the first caller's impls
        source = """
        _pure_ int f(int x);
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void go() { this->v = f(this->v); }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->go(); }
        """
        cache = MemoryTier()
        plus_one = pipeline_compile(
            source_workload(source, {"f": lambda x: x + 1}), cache=cache
        )
        plus_hundred = pipeline_compile(
            source_workload(source, {"f": lambda x: x + 100}), cache=cache
        )
        assert not plus_hundred.cache_hit
        assert plus_one.program.pure_functions["f"].impl(1) == 2
        assert plus_hundred.program.pure_functions["f"].impl(1) == 101
        # the *same* impl objects do share
        impls = {"f": lambda x: x * 2}
        first = pipeline_compile(source_workload(source, impls), cache=cache)
        second = pipeline_compile(source_workload(source, impls), cache=cache)
        assert second.cache_hit
        assert second.fused is first.fused


class TestCodegenArtifactSharing:
    def test_program_compiles_share_modules_by_content(self):
        # the emit pass finds both modules in the memory tier even when
        # every pass re-runs
        first = pipeline_compile(parse_program(FIG2_SOURCE, name="fig2"))
        second = pipeline_compile(
            parse_program(FIG2_SOURCE, name="fig2"), reuse_result=False
        )
        assert not second.cache_hit
        assert second.compiled_unfused is first.compiled_unfused
        assert second.compiled_fused is first.compiled_fused
        assert "def run_entry(" in first.compiled_unfused.source
        assert "def run_fused(" in first.compiled_fused.source

    def test_text_and_program_entry_points_share_modules(self):
        # a text-sourced and a Program-sourced compile must land on the
        # same exec'd module artifacts
        from repro.pipeline import GLOBAL_CACHE

        result = pipeline_compile(FIG2_SOURCE, name="fig2")
        program = parse_program(FIG2_SOURCE, name="fig2")
        from_program = pipeline_compile(program)
        assert from_program.compiled_unfused is result.compiled_unfused
        assert from_program.compiled_fused is result.compiled_fused
        assert GLOBAL_CACHE.stats()["artifacts"] >= 2

    def test_modules_reused_from_a_tier_holding_no_result(self):
        # the emit stage's module lookup must not hinge on len(tier),
        # which counts results only
        source = (
            Path(__file__).resolve().parents[2] / "examples" / "fig2.grafter"
        ).read_text()
        cache = MemoryTier()
        first = pipeline_compile(source, name="fig2", cache=cache)
        # no public call drops results alone; clear that section
        cache._sections["result"].clear()
        assert len(cache) == 0
        assert cache.stats()["artifacts"] >= 2
        second = pipeline_compile(
            source, name="fig2", cache=cache, reuse_result=False
        )
        assert second.compiled_unfused is first.compiled_unfused
        assert second.compiled_fused is first.compiled_fused

    def test_entryless_program_compiles_without_fusion(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void go() { this->v = 1; }
        };
        """
        program = parse_program(source, name="entryless")
        # nothing to fuse, so no pipeline compile: the layout's backend
        # builds the module directly
        compiled = layout_backend("object").unfused_module(program)
        assert "def run_entry(" in compiled.source
        assert "run_entry" in compiled.namespace
