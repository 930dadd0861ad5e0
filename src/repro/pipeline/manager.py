"""The unit-granular pass contract, shared pass context, and manager.

A pass no longer advances the context in one opaque ``run``: it
*declares* its compilation units and computes them one at a time, so
the manager — not the pass — owns caching, counting, and worklist
order. The contract:

* ``discover(pctx)`` — the initial units. A :class:`Unit` names its
  ``kind`` (``"program"``, ``"method"``, ``"sequence"``, …), carries a
  content ``key`` (``None`` = uncacheable), and a pass-specific
  ``payload`` (the method, the member tuple, the plan).
* ``compute(pctx, unit)`` — produce the unit's artifact. Only called on
  a cache miss.
* ``install(pctx, unit, artifact)`` — wire the artifact (fresh or
  cached) into the context. Passes whose unit sets are *discovered*
  rather than enumerable up front (fusion finds child sequences while
  planning) enqueue follow-up units here via :meth:`PassContext.enqueue`.
* ``finish(pctx)`` — assemble the pass's whole-program output from the
  installed units and return its IR-size stats.

The manager runs each pass's worklist to exhaustion, consulting the
per-unit artifact layer (:class:`~repro.pipeline.units.UnitArtifacts`)
for every keyed unit. Each computed unit is published to memory at
once; a pass that sets ``persist_units`` has its computed units written
to disk as one pack when its worklist is empty. Hit/miss/disk counters
land in the pass's
:class:`~repro.pipeline.options.PassTiming` detail — the numbers
``CompileResult.unit_report`` and ``repro compile --explain`` print.
Control flow across passes stays deliberately linear — the pipeline's
value is instrumentation and caching, not pass reordering.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, runtime_checkable

from repro import obs
from repro.pipeline.options import CompileOptions, PassTiming
from repro.pipeline.units import UnitArtifacts

# one queryable namespace for what PassTiming.detail has always
# recorded per compile: wall time per pass, unit reuse by outcome
_PASS_SECONDS = obs.REGISTRY.histogram(
    "repro_pass_seconds",
    "wall time per pipeline pass",
    labels=("pass_name",),
)
_PASS_UNITS = obs.REGISTRY.counter(
    "repro_pass_units_total",
    "compilation units per pass by cache outcome",
    labels=("pass_name", "outcome"),
)


@dataclass
class Unit:
    """One compilation unit of one pass.

    ``key`` is a content hash from :class:`~repro.pipeline.units.UnitIndex`
    (or ``None`` for uncacheable work — whole-program stages, or any
    compile with the unit layer disabled); ``payload`` is whatever the
    pass needs to compute the artifact.
    """

    kind: str
    key: Optional[str]
    label: str = ""
    payload: object = None


@runtime_checkable
class Pass(Protocol):
    """One named pipeline stage, unit by unit."""

    name: str

    def discover(self, pctx: "PassContext") -> Iterable[Unit]:
        """The pass's initial units (may be empty for a skipped pass)."""
        ...  # pragma: no cover - protocol

    def compute(self, pctx: "PassContext", unit: Unit) -> object:
        """Produce one unit's artifact (cache misses only)."""
        ...  # pragma: no cover - protocol

    def install(self, pctx: "PassContext", unit: Unit, artifact) -> None:
        """Wire one artifact — fresh or cached — into the context."""
        ...  # pragma: no cover - protocol

    def finish(self, pctx: "PassContext") -> dict[str, int]:
        """Assemble whole-program output; return IR-size stats."""
        ...  # pragma: no cover - protocol


class PassContext:
    """Mutable state threaded through the passes of one compilation."""

    def __init__(
        self,
        options: CompileOptions,
        *,
        source_text: Optional[str] = None,
        program=None,
        name: str = "program",
        pure_impls: Optional[dict] = None,
        source_hash: str = "",
        store=None,
    ):
        self.options = options
        self.source_text = source_text
        self.name = name
        self.pure_impls = pure_impls or {}
        self.source_hash = source_hash
        # the compile's TieredStore, or None for a compile with no store
        self.store = store
        # the per-unit artifact layer over the store, or None without
        # one — passes key their units only when this is set
        self.units = UnitArtifacts(store) if store is not None else None
        # a Program handed in directly is trusted: its creator already
        # validated it (workloads, treefuser lowering), so the frontend
        # stages no-op instead of re-running mode checks it may not meet
        self.program = program
        self.trusted_program = program is not None
        # filled in by the passes
        self.lowered = None  # treefuser.LoweredProgram (lower pass)
        self.analysis = None  # AnalysisContext
        self.planner = None  # FusionPlanner
        self.entry_plans = None  # list[EntryPlan]
        self.fused = None  # FusedProgram
        self.unfused_source: Optional[str] = None
        self.fused_source: Optional[str] = None
        self.compiled_unfused = None
        self.compiled_fused = None
        self._unit_index = None
        self._worklist: deque[Unit] = deque()

    @property
    def unit_index(self):
        """Content keys for the current program (built on first use —
        after parse/validate/lower have settled what the program is)."""
        if self._unit_index is None:
            from repro.pipeline.units import UnitIndex

            self._unit_index = UnitIndex(self.program, self.options)
        return self._unit_index

    def reset_unit_index(self) -> None:
        """Invalidate the key index after the program object changes
        (the lower pass swaps in the tagged-union twin)."""
        self._unit_index = None

    def enqueue(self, unit: Unit) -> None:
        """Add a discovered unit to the current pass's worklist."""
        self._worklist.append(unit)


class PassManager:
    """Runs each pass's unit worklist, timing and counting per pass."""

    def __init__(self, passes: list[Pass]):
        self.passes = list(passes)

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, pctx: PassContext) -> list[PassTiming]:
        timings: list[PassTiming] = []
        for stage in self.passes:
            start = time.perf_counter()
            with obs.span(f"pass.{stage.name}") as span:
                detail = self._run_stage(stage, pctx)
                elapsed = time.perf_counter() - start
                span.set(
                    **{
                        key: value
                        for key, value in detail.items()
                        if isinstance(value, (int, float))
                    }
                )
            _PASS_SECONDS.labels(pass_name=stage.name).observe(elapsed)
            for outcome, key in (
                ("hit", "unit_hits"),
                ("miss", "unit_misses"),
            ):
                count = detail.get(key)
                if count:
                    _PASS_UNITS.labels(
                        pass_name=stage.name, outcome=outcome
                    ).inc(count)
            timings.append(
                PassTiming(name=stage.name, seconds=elapsed, detail=detail)
            )
        return timings

    def _run_stage(self, stage: Pass, pctx: PassContext) -> dict[str, int]:
        worklist = pctx._worklist = deque()
        worklist.extend(stage.discover(pctx))
        spill = getattr(stage, "persist_units", False)
        while worklist:
            unit = worklist.popleft()
            # one span per unit covering lookup + compute + install;
            # `hit` records whether the unit layer served the artifact
            with obs.span(
                f"unit.{unit.kind}", label=unit.label
            ) as span:
                artifact = None
                cached = False
                if unit.key is not None and pctx.units is not None:
                    artifact = pctx.units.lookup(stage.name, unit.key)
                    cached = artifact is not None
                if artifact is None:
                    artifact = stage.compute(pctx, unit)
                    if (
                        unit.key is not None
                        and pctx.units is not None
                        and artifact is not None
                    ):
                        pctx.units.publish(
                            stage.name, unit.key, artifact, spill=spill
                        )
                stage.install(pctx, unit, artifact)
                span.set(hit=cached)
        if pctx.units is not None:
            pctx.units.flush(stage.name)
        detail = dict(stage.finish(pctx) or {})
        if pctx.units is not None:
            detail.update(pctx.units.counters(stage.name))
        return detail
