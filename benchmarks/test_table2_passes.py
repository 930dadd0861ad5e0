"""Table 2 — the render-tree and AST pass inventories."""

from repro.bench.experiments import table2_passes
from repro.pipeline.stages import plan_and_synthesize
from repro.workloads.astlang import ast_program


def test_table2(report, benchmark):
    text, rows = table2_passes()
    report("table2_passes", text)
    render_passes = [row[0] for row in rows if row[0]]
    ast_passes = [row[1] for row in rows if row[1]]
    assert len(render_passes) == 5
    assert len(ast_passes) == 6
    assert "replaceVarRefs" in ast_passes
    # time AST fusion (the biggest synthesis job in the suite)
    program = ast_program()
    benchmark.pedantic(lambda: plan_and_synthesize(program), rounds=1, iterations=1)
