"""Ablation — the fusion termination cutoffs (paper §4).

The paper bounds fusion by (a) the length of a fused sequence and (b)
how often one static function may repeat in it. This ablation sweeps the
sequence cutoff on the render workload: tighter cutoffs mean fewer
traversals per fused unit and more node visits, converging once the
cutoff exceeds what the dependences allow anyway.
"""

from repro.bench.metrics import measure_run
from repro.bench.tables import format_series
from repro.fusion import FusionLimits
from repro.pipeline.stages import plan_and_synthesize
from repro.workloads.render import build_document, render_program, replicated_pages_spec
from repro.workloads.render.schema import DEFAULT_GLOBALS

CUTOFFS = (1, 2, 3, 6, 12)


def test_cutoff_ablation(report, benchmark):
    program = render_program()
    spec = replicated_pages_spec(6)

    def build(p, h):
        return build_document(p, h, spec)

    baseline = measure_run(program, build, DEFAULT_GLOBALS)
    ratios = []
    units = []
    for cutoff in CUTOFFS:
        fused = plan_and_synthesize(program, limits=FusionLimits(max_sequence=cutoff))
        run = measure_run(program, build, DEFAULT_GLOBALS, fused=fused)
        ratios.append(run.node_visits / baseline.node_visits)
        units.append(fused.unit_count)
    text = format_series(
        "Ablation — max fused-sequence cutoff (render tree)",
        "max_sequence",
        list(CUTOFFS),
        {"node_visits_ratio": ratios, "fused_units": units},
        note="visits converge once the cutoff exceeds the dependence-"
             "limited cluster width",
    )
    report("ablation_cutoffs", text)
    # monotone: larger cutoffs never fuse less
    for earlier, later in zip(ratios, ratios[1:]):
        assert later <= earlier + 1e-9
    # cutoff 1 disables cross-traversal fusion entirely
    assert ratios[0] >= 0.95
    # the default cutoff reaches the dependence-limited optimum
    assert ratios[-1] == min(ratios)
    fused = plan_and_synthesize(program, limits=FusionLimits(max_sequence=12))
    benchmark.pedantic(
        lambda: measure_run(program, build, DEFAULT_GLOBALS, fused=fused),
        rounds=3, iterations=1,
    )
