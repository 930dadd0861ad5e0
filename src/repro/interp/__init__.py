"""The IR interpreter: the executable specification.

Nothing in this package compiles anything. The :class:`Interpreter`
walks :mod:`repro.ir` programs directly — dynamic dispatch, truncation,
topology mutation, globals, parameters, pure calls, entry schedules,
and fused programs under active flags — against either tree layout
(object graph or ``ForestPool`` columns, via :mod:`repro.interp.views`),
producing the same snapshots, global states, and write-sets the
compiled backends produce. The compiled fused/unfused modules are
*measured against it* (:mod:`repro.fuzz`), the service uses it as the
zero-compile-latency fallback tier (``ExecRequest.mode ==
"interpret"``), and with a meter it prices runs under the paper's cost
model (:mod:`repro.bench.metrics`).
"""

from repro.interp.diff import (
    Divergence,
    ExecutionRecord,
    diff_report,
    first_divergence,
    first_snapshot_divergence,
    make_record,
    write_set,
)
from repro.interp.machine import Interpreter
from repro.interp.module import (
    InterpretedModule,
    interpret_workload,
    resolve_program,
)
from repro.interp.views import ObjectTreeView, PooledTreeView

__all__ = [
    "Divergence",
    "ExecutionRecord",
    "InterpretedModule",
    "Interpreter",
    "ObjectTreeView",
    "PooledTreeView",
    "diff_report",
    "first_divergence",
    "first_snapshot_divergence",
    "interpret_workload",
    "make_record",
    "resolve_program",
    "write_set",
]
