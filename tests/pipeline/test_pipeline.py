"""Staged pipeline structure: pass ordering, instrumentation, options."""

import pytest

from repro.errors import FusionError, ValidationError
from repro.frontend import parse_program
from repro.pipeline import (
    CompileOptions,
    PassManager,
    compile as pipeline_compile,
    default_passes,
)
from repro.fusion.grouping import FusionLimits
from repro.storage import MemoryTier

from tests.fixtures import FIG2_SOURCE

EXPECTED_ORDER = [
    "parse",
    "validate",
    "lower",
    "access-analysis",
    "dependence",
    "fusion",
    "schedule",
    "emit",
]


class TestPassOrdering:
    def test_default_passes_ordered(self):
        assert PassManager(default_passes()).pass_names == EXPECTED_ORDER

    def test_timings_follow_pass_order(self):
        result = pipeline_compile(FIG2_SOURCE, cache=None)
        assert [t.name for t in result.timings] == EXPECTED_ORDER
        assert all(t.seconds >= 0 for t in result.timings)

    def test_each_pass_reports_ir_size_detail(self):
        result = pipeline_compile(FIG2_SOURCE, cache=None)
        detail = {t.name: t.detail for t in result.timings}
        assert detail["parse"]["tree_types"] == 4
        assert detail["access-analysis"]["statements"] > 0
        assert detail["dependence"]["vertices"] > 0
        assert detail["fusion"]["units"] == 3
        assert detail["schedule"]["max_width"] == 2
        assert detail["emit"]["fused_lines"] > 0


class TestCompileResult:
    def test_source_compile_produces_everything(self):
        result = pipeline_compile(FIG2_SOURCE, cache=None, name="fig2")
        assert result.program.name == "fig2"
        assert result.fused.stats()["units"] == 3
        assert "def run_fused(" in result.fused_source
        assert "def run_entry(" in result.unfused_source
        assert result.compiled_unfused is not None
        assert result.compiled_fused is not None
        assert not result.cache_hit

    def test_emit_false_stops_after_fusion(self):
        result = pipeline_compile(
            FIG2_SOURCE, cache=None, options=CompileOptions(emit=False)
        )
        assert result.fused is not None
        assert result.fused_source is None
        assert result.compiled_fused is None
        emit = next(t for t in result.timings if t.name == "emit")
        assert emit.detail == {"skipped": 1}

    def test_program_input_skips_frontend_stages(self):
        program = parse_program(FIG2_SOURCE, name="fig2")
        result = pipeline_compile(program, cache=None)
        detail = {t.name: t.detail for t in result.timings}
        assert detail["parse"] == {"skipped": 1}
        assert detail["validate"] == {"skipped": 1}
        assert result.program is program
        assert result.fused.stats()["units"] == 3

    def test_timings_report_format(self):
        result = pipeline_compile(FIG2_SOURCE, cache=None, name="fig2")
        report = result.timings_report()
        assert "pipeline timings for 'fig2' (cache miss" in report
        for name in EXPECTED_ORDER + ["total"]:
            assert name in report
        assert "ms" in report


class TestPipelineErrors:
    def test_invalid_source_fails_in_validate(self):
        bad = """
        _tree_ class N {
            _child_ N* kid;
            int flag = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class I : public N {
            _traversal_ void go() {
                if (this->flag == 1) { this->kid->go(); }
            }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->go(); }
        """
        with pytest.raises(ValidationError):
            pipeline_compile(bad, cache=None)
        # the same source is legal in treefuser mode
        result = pipeline_compile(
            bad, cache=None, options=CompileOptions(mode="treefuser")
        )
        assert result.fused is not None

    def test_entryless_program_raises_fusion_error(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            _traversal_ virtual void go() {}
        };
        """
        with pytest.raises(FusionError):
            pipeline_compile(source, cache=None)


class TestFusionLimitsThroughPipeline:
    def test_limits_reach_the_planner(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void f() {}
        };
        _tree_ class I : public N {
            _traversal_ void f() { this->kid->f(); this->v = this->v + 1; }
        };
        _tree_ class L : public N { };
        int main() {
            N* root = ...;
            root->f(); root->f(); root->f(); root->f(); root->f();
        }
        """
        cache = MemoryTier()
        options = CompileOptions(
            limits=FusionLimits(max_sequence=2), emit=False
        )
        result = pipeline_compile(source, cache=cache, options=options)
        assert len(result.fused.entry_groups) == 3  # 2 + 2 + 1
        assert all(u.width <= 2 for u in result.fused.units.values())
