"""Traversal fusion (paper §3.3–3.4).

* :mod:`repro.fusion.fused_ir` — the synthesized program form: fused
  units (the paper's ``_fuse__F...`` functions) with active-flag-guarded
  statements and grouped, dispatch-table calls (the ``__stub`` methods).
* :mod:`repro.fusion.grouping` — greedy grouping of call vertices on the
  same receiver, with the contraction-acyclicity safety check.
* :mod:`repro.fusion.scheduling` — dependence-respecting topological
  ordering of the (contracted) dependence graph.

The fixpoint driver (outline/inline, reorder, recurse on new sequences,
memoize by sequence label, stop at the termination cutoffs) is the
pipeline's fusion and schedule passes, :mod:`repro.pipeline.stages`.
Fuse a program with :func:`repro.pipeline.compile`; nothing else runs
these passes.
"""

from repro.fusion.fused_ir import (
    EntryGroup,
    FusedProgram,
    FusedUnit,
    GroupCall,
    GuardedStmt,
    MemberCall,
)
from repro.fusion.grouping import FusionLimits

__all__ = [
    "EntryGroup",
    "FusedProgram",
    "FusedUnit",
    "GroupCall",
    "GuardedStmt",
    "MemberCall",
    "FusionLimits",
]
