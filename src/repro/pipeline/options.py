"""Compile options, per-pass timings, and the compile result record.

:class:`CompileOptions` is the *complete* set of knobs that can change
what the pipeline produces, and nothing else — it hashes to a stable
string so every storage tier (:mod:`repro.storage`) keys results on
``(source hash, options hash)``. Anything that does not change the
output stays out of it: the module name, the store a compile goes
through (its directory, peers, budgets and ``persist`` flag belong to
the :class:`~repro.storage.TieredStore` the caller passes), and tracing
— a caller records a compile's spans by opening a forced root span
around it (``obs.span(name, force=True)``), so a traced compile shares
every key and cached result with an untraced one.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.fusion.grouping import FusionLimits
from repro.ir.validate import LanguageMode


def hash_text(text: str) -> str:
    """Content hash used throughout the pipeline (hex sha256)."""
    return hashlib.sha256(text.encode()).hexdigest()


def impl_ref(fn) -> str:
    """Cache-key reference for one bound pure-function callable.

    Importable module-level functions get a ``module:qualname``
    reference — the same identity notion pickle uses, so it is stable
    across processes and lets the on-disk artifact store serve compiles
    of impl-bound programs to other processes. Anything else (lambdas,
    closures, bound methods, shadowed definitions) falls back to
    ``id()`` — which is safe for the in-memory cache because every live
    cache entry holds a strong reference to its impls (through the
    cached program): while an entry exists its impls' ids cannot be
    reused, so an id match implies the same object. ``id()`` refs are
    *not* stable across processes; :func:`impls_portable` gates disk
    spilling on their absence.
    """
    module_name = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if module_name and qualname and "<" not in qualname:
        target = sys.modules.get(module_name)
        for part in qualname.split("."):
            target = getattr(target, part, None)
            if target is None:
                break
        if target is fn:
            return f"{module_name}:{qualname}"
    return f"id:{id(fn)}"


def _impl_signature(impls: dict) -> str:
    """Signature of bound pure-function callables (see :func:`impl_ref`).

    The callables are baked into the compiled program (the interpreter
    and the generated modules call them through it), so two compiles of
    identical text with *different* impl objects must not share a cache
    entry.
    """
    return ",".join(
        f"{name}={impl_ref(fn)}" for name, fn in sorted(impls.items())
    )


def impls_portable(program) -> bool:
    """True when every bound pure-function impl has a cross-process
    stable reference (module-level function) — the precondition for
    spilling a compile result to the on-disk artifact store."""
    return all(
        func.impl is None or not impl_ref(func.impl).startswith("id:")
        for func in program.pure_functions.values()
    )


def hash_program(program) -> str:
    """Content hash of an in-memory program: the pretty-printer is the
    canonical form (it round-trips, see tests/frontend), so two
    structurally identical programs hash alike regardless of object
    identity. Bound pure-function impls are part of the key (see
    :func:`_impl_signature`)."""
    from repro.ir.printer import print_program

    program.finalize()
    impls = {
        name: func.impl
        for name, func in program.pure_functions.items()
        if func.impl is not None
    }
    return hash_text(
        f"{print_program(program)}\x00impls={_impl_signature(impls)}"
    )


def hash_source(source: str, pure_impls: Optional[dict] = None) -> str:
    """Content hash of source text plus the identity of any bound
    pure-function impls (see :func:`_impl_signature`)."""
    return hash_text(
        f"{source}\x00impls={_impl_signature(pure_impls or {})}"
    )


@dataclass(frozen=True)
class CompileOptions:
    """What to build: every field changes what the pipeline produces.

    * ``mode`` — language mode: ``"grafter"`` (default) rejects
      conditional traversal calls, ``"treefuser"`` allows them.
    * ``limits`` — fusion termination cutoffs (paper §4).
    * ``lower`` — run the TreeFuser lowering as a pre-pass: the program
      is rewritten to its homogeneous tagged-union twin before analysis
      and fusion (``CompileResult.lowered`` carries the tag/slot
      metadata tree converters need).
    * ``emit`` — also emit + exec the generated Python modules; with
      ``False`` the pipeline stops after fusion (cheaper when only the
      :class:`FusedProgram` is needed, e.g. for the interpreter).
    * ``layout`` — the tree representation generated code runs against,
      a key of :data:`repro.layout.base.LAYOUTS`:
      ``"object"`` (default) walks the ``Node`` object graph,
      ``"pooled"`` compiles index-based traversals over a
      :class:`~repro.layout.ForestPool` (structure-of-arrays columns,
      children as integer indices). The two backends emit different
      module text, so pooled and object-graph artifacts
      content-address separately in every storage tier.

    Where results are stored is not an option: a compile's caller
    passes the :class:`~repro.storage.TieredStore` it owns (see
    :func:`repro.pipeline.compile`), so a store directory, a peer or a
    byte budget never changes a key.
    """

    mode: str = "grafter"
    limits: FusionLimits = field(default_factory=FusionLimits)
    lower: bool = False
    emit: bool = True
    layout: str = "object"

    def __post_init__(self):
        modes = [mode.value for mode in LanguageMode]
        if self.mode not in modes:
            raise ValueError(
                f"CompileOptions.mode must be one of {modes}, "
                f"got {self.mode!r}"
            )

    @property
    def language_mode(self) -> LanguageMode:
        return LanguageMode(self.mode)

    def canonical(self) -> str:
        """Stable text form of every field, derived by reflection so a
        new knob participates in the key the moment it is added —
        forgetting would silently alias entries compiled under different
        settings (tests/pipeline/test_options_reflection.py re-asserts
        the invariant). The limits expand to one part per cutoff."""
        parts = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "limits":
                parts.extend(
                    f"{limit.name}={getattr(value, limit.name)}"
                    for limit in fields(value)
                )
            else:
                parts.append(f"{spec.name}={value}")
        return ";".join(parts)

    def options_hash(self) -> str:
        """Hash of :meth:`canonical` — the second half of every result
        key, in memory and on disk."""
        return hash_text(self.canonical())


@dataclass
class PassTiming:
    """One pipeline stage's instrumentation record."""

    name: str
    seconds: float
    detail: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.name:<16} {self.seconds * 1e3:>9.2f} ms    {detail}"


@dataclass
class CompileResult:
    """What :func:`repro.pipeline.compile` returns (and what the cache
    stores). On a cache hit ``cache_hit`` is true, ``timings`` holds just
    the lookup cost, and ``cold_timings`` carries the original cold
    compile's per-pass record for comparison."""

    source_hash: str
    options_hash: str
    options: CompileOptions
    program: object  # repro.ir.program.Program
    fused: object  # repro.fusion.fused_ir.FusedProgram
    timings: list[PassTiming] = field(default_factory=list)
    cache_hit: bool = False
    cold_timings: Optional[list[PassTiming]] = None
    unfused_source: Optional[str] = None
    fused_source: Optional[str] = None
    compiled_unfused: Optional[object] = None  # codegen.CompiledProgram
    compiled_fused: Optional[object] = None  # codegen.CompiledFused
    lowered: Optional[object] = None  # treefuser.LoweredProgram

    @property
    def key(self) -> tuple[str, str]:
        return (self.source_hash, self.options_hash)

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def timings_report(self) -> str:
        """The ``--timings`` report: one row per pass, wall time and
        IR-size stats, plus the cached cold-compile rows after a hit."""
        name = getattr(self.program, "name", "program")
        status = "hit" if self.cache_hit else "miss"
        lines = [
            f"pipeline timings for {name!r} "
            f"(cache {status}, key {self.source_hash[:12]}/"
            f"{self.options_hash[:12]})"
        ]
        lines.append(f"  {'pass':<16} {'wall':>12}    detail")
        for timing in self.timings:
            lines.append("  " + timing.describe())
        lines.append(
            f"  {'total':<16} {self.total_seconds * 1e3:>9.2f} ms"
        )
        if self.cache_hit and self.cold_timings:
            cold_total = sum(t.seconds for t in self.cold_timings)
            lines.append("  cold compile (cached):")
            for timing in self.cold_timings:
                lines.append("    " + timing.describe())
            lines.append(
                f"    {'total':<16} {cold_total * 1e3:>9.2f} ms"
            )
        return "\n".join(lines)

    def unit_report(self) -> str:
        """The ``--explain`` report: per-pass compilation-unit reuse —
        how many units each pass loaded from the unit store versus
        recomputed (plus disk/peer loads when the store's disk tier or
        one of its peers served them)."""
        name = getattr(self.program, "name", "program")
        if self.cache_hit:
            return (
                f"unit reuse for {name!r}: whole result served from the "
                f"compile cache (no passes ran)"
            )
        lines = [f"unit reuse for {name!r} (per pass):"]
        lines.append(
            f"  {'pass':<16} {'units':>6} {'hits':>6} {'misses':>7}"
            f" {'disk':>6} {'peer':>6}"
        )
        keyed = 0
        for timing in self.timings:
            hits = timing.detail.get("unit_hits")
            misses = timing.detail.get("unit_misses")
            if hits is None and misses is None:
                continue
            keyed += 1
            hits = hits or 0
            misses = misses or 0
            disk = timing.detail.get("unit_disk_hits", 0)
            peer = timing.detail.get("unit_peer_hits", 0)
            lines.append(
                f"  {timing.name:<16} {hits + misses:>6} {hits:>6} "
                f"{misses:>7} {disk:>6} {peer:>6}"
            )
        if not keyed:
            lines.append(
                "  (no keyed units — compiled with the unit layer "
                "disabled)"
            )
        return "\n".join(lines)

    def unit_summary(self) -> dict:
        """Structured form of :meth:`unit_report` — what the service's
        ``/recompile`` endpoint returns as JSON."""
        passes = {}
        for timing in self.timings:
            detail = timing.detail
            if "unit_hits" not in detail and "unit_misses" not in detail:
                continue
            passes[timing.name] = {
                "units": detail.get("unit_hits", 0)
                + detail.get("unit_misses", 0),
                "hits": detail.get("unit_hits", 0),
                "misses": detail.get("unit_misses", 0),
                "disk_hits": detail.get("unit_disk_hits", 0),
                "peer_hits": detail.get("unit_peer_hits", 0),
                "seconds": timing.seconds,
            }
        return {
            "source_hash": self.source_hash,
            "cache_hit": self.cache_hit,
            "total_seconds": self.total_seconds,
            "passes": passes,
        }
