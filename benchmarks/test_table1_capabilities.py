"""Table 1 — capability matrix, plus fusion (compile-time) cost timing."""

from repro.bench.experiments import table1_capabilities
from repro.pipeline.stages import plan_and_synthesize

from tests.fixtures import fig2_program


def test_table1(report, benchmark):
    text, rows = table1_capabilities()
    report("table1_capabilities", text)
    grafter_row = rows[-1]
    assert grafter_row[1:] == ("yes", "yes", "yes", "yes")
    treefuser_row = rows[-2]
    assert treefuser_row[1] == "no"  # no heterogeneous trees
    # time the fusion engine itself on the paper's running example
    program = fig2_program()
    benchmark.pedantic(lambda: plan_and_synthesize(program), rounds=3, iterations=1)
