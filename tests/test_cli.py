"""CLI tests (`python -m repro ...`)."""

import pytest

from repro.cli import main

from tests.fixtures import FIG2_SOURCE

CONDITIONAL_SOURCE = """
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


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.grafter"
    path.write_text(FIG2_SOURCE)
    return str(path)


@pytest.fixture
def conditional_file(tmp_path):
    path = tmp_path / "cond.grafter"
    path.write_text(CONDITIONAL_SOURCE)
    return str(path)


class TestCli:
    def test_parse_summary(self, fig2_file, capsys):
        assert main(["parse", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "tree types: 4" in out
        assert "computeWidth" in out

    def test_print_round_trips(self, fig2_file, capsys, tmp_path):
        assert main(["print", fig2_file]) == 0
        printed = capsys.readouterr().out
        reprinted = tmp_path / "reprinted.grafter"
        reprinted.write_text(printed)
        assert main(["parse", str(reprinted)]) == 0

    def test_fuse_prints_units(self, fig2_file, capsys):
        assert main(["fuse", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "_fuse__" in out
        assert "active_flags" in out
        assert "fused traversal functions" in out

    def test_explain_reports_groups(self, fig2_file, capsys):
        assert main(["explain", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "sequence:" in out
        assert "group 0:" in out

    def test_dot_output(self, fig2_file, capsys):
        assert main(["dot", fig2_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_missing_file_errors(self, capsys):
        assert main(["parse", "/nonexistent.grafter"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_grafter_mode_rejects_conditional_calls(self, conditional_file, capsys):
        assert main(["parse", conditional_file]) == 1
        assert "conditional return" in capsys.readouterr().err

    def test_treefuser_mode_accepts_conditional_calls(self, conditional_file, capsys):
        assert main(["--mode", "treefuser", "parse", conditional_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_fuse_treefuser_mode(self, conditional_file, capsys):
        assert main(["--mode", "treefuser", "fuse", conditional_file]) == 0
        out = capsys.readouterr().out
        assert "_fuse__" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestCompileCommand:
    def test_compile_summary(self, fig2_file, capsys):
        assert main(["compile", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "fused units:" in out
        assert "generated python:" in out

    def test_compile_timings_format(self, fig2_file, capsys):
        assert main(["compile", fig2_file, "--timings"]) == 0
        out = capsys.readouterr().out
        assert "pipeline timings for" in out
        # every stage appears as a row with a wall-time in ms
        for stage in [
            "parse", "validate", "access-analysis",
            "dependence", "fusion", "schedule", "emit",
        ]:
            assert stage in out
        assert "ms" in out
        assert "total" in out

    def test_compile_second_run_hits_cache(self, fig2_file, capsys):
        assert main(["compile", fig2_file]) == 0
        first = capsys.readouterr().out
        assert main(["compile", fig2_file, "--timings"]) == 0
        second = capsys.readouterr().out
        # same process => global compile cache serves the second run
        assert "cache hit" in second
        assert "cache-lookup" in second
        assert "cold compile (cached):" in second
        assert "fused units:" in first and "fused units:" in second

    def test_compile_no_emit(self, fig2_file, capsys):
        assert main(["compile", fig2_file, "--no-emit"]) == 0
        out = capsys.readouterr().out
        assert "generated python:" not in out

    def test_compile_emit_python_writes_module(self, fig2_file, capsys, tmp_path):
        target = tmp_path / "fused_module.py"
        assert main(["compile", fig2_file, "--emit-python", str(target)]) == 0
        out = capsys.readouterr().out
        assert f"written to {target}" in out
        text = target.read_text()
        assert "def run_fused(" in text

    def test_compile_emit_python_conflicts_with_no_emit(self, fig2_file, capsys, tmp_path):
        target = tmp_path / "never.py"
        assert main([
            "compile", fig2_file, "--no-emit", "--emit-python", str(target),
        ]) == 1
        assert "requires emission" in capsys.readouterr().err
        assert not target.exists()

    def test_compile_treefuser_mode(self, conditional_file, capsys):
        assert main(["--mode", "treefuser", "compile", conditional_file]) == 0
        assert "compiled" in capsys.readouterr().out

    def test_compile_missing_file_errors(self, capsys):
        assert main(["compile", "/nonexistent.grafter"]) == 1
        assert "error:" in capsys.readouterr().err


class TestServiceCli:
    def test_exec_batched(self, capsys):
        assert main([
            "exec", "--workload", "render", "--trees", "4", "--size", "2",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 trees executed (batched, 2 workers, thread backend)" in out
        assert "tree latency: p50" in out

    def test_exec_sequential_inline(self, capsys):
        assert main([
            "exec", "--trees", "3", "--size", "2", "--sequential",
            "--backend", "inline", "--workers", "1",
        ]) == 0
        assert "(sequential, 1 workers, inline backend)" in capsys.readouterr().out

    def test_exec_with_cache_dir_reports_store(self, capsys, tmp_path):
        assert main([
            "exec", "--trees", "2", "--size", "2", "--backend", "inline",
            "--workers", "1", "--cache-dir", str(tmp_path / "store"),
        ]) == 0
        assert "store: 1 entries" in capsys.readouterr().out

    def test_exec_unknown_workload_errors(self, capsys):
        assert main(["exec", "--workload", "nope"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_compile_cache_dir_spills(self, fig2_file, capsys, tmp_path):
        store = tmp_path / "artifacts"
        assert main(["compile", fig2_file, "--cache-dir", str(store)]) == 0
        assert "compiled (cold)" in capsys.readouterr().out
        assert list(store.glob("v*/*/*.pkl"))


class TestFlexibleCompileSource:
    def test_compile_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(CONDITIONAL_SOURCE))
        assert main(["--mode", "treefuser", "compile", "-"]) == 0
        out = capsys.readouterr().out
        assert "<stdin>: compiled" in out

    def test_compile_inline_source(self, capsys):
        assert main(["--mode", "treefuser", "compile", CONDITIONAL_SOURCE]) == 0
        out = capsys.readouterr().out
        assert "<inline>: compiled" in out
        assert "fused units" in out

    def test_file_path_still_wins_over_inline(self, fig2_file, capsys):
        assert main(["compile", fig2_file]) == 0
        assert f"{fig2_file}: compiled" in capsys.readouterr().out

    def test_non_source_argument_stays_an_error(self, capsys):
        assert main(["compile", "definitely-missing.grafter"]) == 1
        assert "no such file" in capsys.readouterr().err


class TestRegistryCli:
    def test_exec_kdtree_with_size(self, capsys):
        assert main([
            "exec", "--workload", "kdtree", "--trees", "2", "--size", "2",
            "--backend", "inline", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "kdtree: 2 trees executed" in out

    def test_exec_fmm(self, capsys):
        assert main([
            "exec", "--workload", "fmm", "--trees", "2", "--size", "16",
            "--backend", "inline", "--workers", "1",
        ]) == 0
        assert "fmm: 2 trees executed" in capsys.readouterr().out
