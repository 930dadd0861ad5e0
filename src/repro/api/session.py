"""The :class:`Session` facade: compile + cache + execute behind one object.

Everything the compile/runtime/service stack can do for a workload is
reachable from here::

    import repro
    from repro.workloads.render import render_workload

    with repro.Session(cache_dir="./artifacts") as session:
        compiled = session.compile(render_workload())
        outcome = compiled.run(trees=8, pages=2)
        print(outcome.summaries[0], session.stats()["executor"]["waves"])

``Session`` owns a :class:`~repro.pipeline.options.CompileOptions`
template (one ``cache_dir``, one ``peers`` list of read-only warm
stores — local roots or remote ``repro serve`` URLs — and one tree
``layout``), a memory tier, and a lazily created
:class:`~repro.service.executor.BatchExecutor` (so sessions that only
compile never spin up a pool) resolving through that same tier. The
session is the only place a request's options are filled in: every
compile and every executor request it issues carries complete options,
and the executor runs each request under exactly those. The HTTP
service (:class:`~repro.service.api.TraversalService`) and the
``repro exec``/``repro trace`` commands run on a session too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from repro import obs
from repro.api.workload import Workload
from repro.pipeline import GLOBAL_CACHE, CompileOptions, CompileResult
from repro.pipeline import compile as pipeline_compile
from repro.storage import MemoryTier, disk_tier_for


@dataclass
class RunOutcome:
    """One forest execution: per-tree results plus the wave's stats."""

    workload: Workload
    trees: list  # TreeResult, in forest order
    wall_seconds: float

    @property
    def summaries(self) -> list:
        return [t.summary for t in self.trees]

    def __len__(self) -> int:
        return len(self.trees)


@dataclass
class CompiledWorkload:
    """A workload bound to its compile result and owning session —
    what :meth:`Session.compile` returns; ``.run(trees)`` executes."""

    session: "Session"
    workload: Workload
    result: CompileResult

    @property
    def source_hash(self) -> str:
        return self.result.source_hash

    @property
    def fused(self):
        return self.result.fused

    @property
    def fused_source(self) -> Optional[str]:
        return self.result.fused_source

    @property
    def cache_hit(self) -> bool:
        return self.result.cache_hit

    def run(
        self,
        trees: Union[int, Sequence] = 1,
        *,
        fused: bool = True,
        collect: Optional[Callable] = None,
        **spec_kwargs,
    ) -> RunOutcome:
        return self.session.run(
            self.workload,
            trees,
            fused=fused,
            collect=collect,
            **spec_kwargs,
        )


class Session:
    """Compile and run workloads with shared caching and one executor.

    ``session.options`` is the template every call starts from, and one
    rule (:meth:`options_for`) picks the options a call runs under, the
    same for :meth:`compile`, :meth:`recompile`, :meth:`run` and
    :meth:`submit`: an explicit ``options=`` is taken verbatim — the
    template's ``cache_dir``, ``peers`` and ``layout`` are *not* merged
    into it — and without one the template applies. Keyword overrides
    (``compile(w, emit=False)``) patch whichever of the two applies;
    ``replace(session.options, ...)`` is the way to patch the template
    for a run.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        *,
        peers: tuple = (),
        options: Optional[CompileOptions] = None,
        workers: int = 2,
        backend: str = "thread",
        memory_budget: Optional[int] = None,
        disk_budget: Optional[int] = None,
        layout: Optional[str] = None,
    ):
        base = options if options is not None else CompileOptions()
        patches = {}
        if cache_dir is not None and base.cache_dir is None:
            patches["cache_dir"] = cache_dir
        if peers and not base.peers:
            # read-only warm sources: second store roots or running
            # `repro serve` base URLs, consulted after memory and disk
            patches["peers"] = tuple(peers)
        if memory_budget is not None:
            patches["memory_budget"] = memory_budget
        if disk_budget is not None:
            patches["disk_budget"] = disk_budget
        if layout is not None:
            # tree layout for every compile/run this session issues
            # ('object' | 'pooled'); participates in all cache keys
            patches["layout"] = layout
        if patches:
            base = replace(base, **patches)
        self.options = base
        self.workers = workers
        self.backend = backend
        self._executor = None
        # a memory budget gets this session its *own* memory tier, for
        # its compiles and its executor alike: the process-shared
        # GLOBAL_CACHE must never be resized by one session's budget (it
        # would evict every other caller's results)
        if self.options.memory_budget is not None:
            self.memory = MemoryTier(max_bytes=self.options.memory_budget)
        else:
            self.memory = GLOBAL_CACHE
        # the template's on-disk store, if any: what stats() reports,
        # compact() maintains, and a service exposes to peers
        self.store = (
            disk_tier_for(self.options.cache_dir)
            if self.options.cache_dir is not None
            else None
        )

    def options_for(
        self, options: Optional[CompileOptions] = None, **overrides
    ) -> CompileOptions:
        """The options one call runs under: *options* verbatim when
        given, else the session template, then patched by *overrides*
        (see the class docstring)."""
        effective = options if options is not None else self.options
        return replace(effective, **overrides) if overrides else effective

    # -- compilation ----------------------------------------------------

    def compile(
        self,
        workload: Union[Workload, str],
        *,
        options: Optional[CompileOptions] = None,
        reuse_result: bool = True,
        **option_overrides,
    ) -> CompiledWorkload:
        """Compile a workload (or raw Grafter source) through the staged
        pipeline under :meth:`options_for` ``(options,
        **option_overrides)`` — e.g. ``emit=False`` or ``mode=...``."""
        effective = self.options_for(options, **option_overrides)
        if isinstance(workload, str):
            workload = Workload(
                name="inline",
                source=workload,
                build_tree=_no_build_tree,
            )
        # the trace root for an API-driven compile (mirrors the
        # service's /submit root); a caller's forced root span records
        # it even with the process tracer off
        with obs.span("session.compile", workload=workload.name) as span:
            result = pipeline_compile(
                workload,
                options=effective,
                cache=self.memory,
                reuse_result=reuse_result,
            )
            span.set(
                cache_hit=result.cache_hit,
                source_hash=result.source_hash[:12],
            )
        return CompiledWorkload(
            session=self, workload=workload, result=result
        )

    def recompile(
        self,
        workload: Union[Workload, str],
        *,
        options: Optional[CompileOptions] = None,
        exec_ahead: bool = False,
        **option_overrides,
    ) -> CompiledWorkload:
        """Re-run the pipeline for a (possibly edited) workload, reusing
        unchanged compilation units.

        The whole-result cache is deliberately bypassed — ``recompile``
        means "the workload may have changed; rebuild it" — but every
        pass still consults the per-unit artifact layer, so after
        editing one traversal in a multi-traversal workload only the
        dirtied units re-run analysis/fusion/emit while the rest load
        from the unit store (byte-identical output, see
        ``result.unit_report()``)::

            compiled = session.compile(workload_v1)
            ...edit one traversal...
            recompiled = session.recompile(workload_v2)
            print(recompiled.result.unit_report())

        Unit-assembled modules normally defer their ``exec`` to the
        first run (like a disk-restored artifact). ``exec_ahead=True``
        execs the re-emitted modules before returning, spending that
        cost inside the editor's save-to-run gap so the first ``run()``
        after an edit pays none of it.
        """
        compiled = self.compile(
            workload,
            options=options,
            reuse_result=False,
            **option_overrides,
        )
        if exec_ahead:
            for module in (
                compiled.result.compiled_fused,
                compiled.result.compiled_unfused,
            ):
                if module is not None:
                    module.namespace  # force the deferred exec now
        return compiled

    # -- execution ------------------------------------------------------

    @property
    def executor(self):
        """The session's batch executor (created on first use)."""
        if self._executor is None:
            from repro.service.executor import BatchExecutor

            self._executor = BatchExecutor(
                workers=self.workers,
                backend=self.backend,
                cache=self.memory,
            )
        return self._executor

    def request(
        self,
        workload: Workload,
        trees: Union[int, Sequence] = 1,
        *,
        options: Optional[CompileOptions] = None,
        **kwargs,
    ):
        """The :class:`~repro.service.batching.ExecRequest` that
        :meth:`run` and :meth:`submit` execute: ``workload.request(trees,
        **kwargs)`` carrying :meth:`options_for` ``(options)``."""
        return workload.request(
            trees, options=self.options_for(options), **kwargs
        )

    def run(
        self,
        workload: Workload,
        trees: Union[int, Sequence] = 1,
        *,
        fused: bool = True,
        collect: Optional[Callable] = None,
        options: Optional[CompileOptions] = None,
        mode: str = "compiled",
        **spec_kwargs,
    ) -> RunOutcome:
        """Compile-if-needed and execute a forest; raises on failure.

        ``mode="interpret"`` skips compilation entirely and runs the
        reference interpreter (:mod:`repro.interp`) — the
        zero-compile-latency tier for cold programs or semantics
        cross-checks; ``fused`` is ignored there.
        """
        request = self.request(
            workload,
            trees,
            fused=fused,
            collect=collect,
            options=options,
            mode=mode,
            **spec_kwargs,
        )
        with obs.span(
            "session.run",
            workload=workload.name,
            trees=len(request.trees),
            mode=mode,
        ) as span:
            if request.trace_context is None and span.recorded:
                request.trace_context = span.context
            result = self.executor.run([request])[0]
        if not result.ok:
            raise RuntimeError(
                f"workload {workload.name!r} failed: {result.error}"
            )
        return RunOutcome(
            workload=workload,
            trees=result.trees,
            wall_seconds=result.wall_seconds,
        )

    def submit(self, workload: Workload, trees=1, **kwargs):
        """Async variant of :meth:`run`, taking the same arguments:
        returns the executor's future."""
        return self.executor.submit(self.request(workload, trees, **kwargs))

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        """Compile cache, executor, store and per-tier records — also
        the core of the service's ``/stats``. ``store`` is the disk
        tier's record lifted out of ``storage`` (``None`` without a
        store), so one call walks the store directory once."""
        tiers = self._tiers()
        storage = tiers.stats() if tiers is not None else []
        store = None
        if self.store is not None:
            store = next(
                (
                    {
                        key: value
                        for key, value in record.items()
                        if key not in ("label", "kind")
                    }
                    for record in storage
                    if record["label"] == self.store.label
                ),
                None,
            ) or self.store.stats()
        return {
            "compile_cache": self.memory.stats(),
            "executor": self.executor.stats(),
            "store": store,
            "storage": storage,
        }

    def _tiers(self):
        """The session's storage stack (memory → disk → peers), shared
        with every compile run under its options."""
        from repro.pipeline.driver import _tiers_for

        return _tiers_for(self.memory, self.options)

    def gc(
        self,
        pass_name: Optional[str] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """Run one GC policy over the session's writable tiers — e.g.
        ``session.gc("fusion", max_age_seconds=7 * 86400)`` drops week-old
        fusion plans while leaving every other pass's units intact."""
        tiers = self._tiers()
        if tiers is None:
            return {"total": {"removed": 0, "reclaimed_bytes": 0}}
        return tiers.gc(
            pass_name=pass_name,
            max_age_seconds=max_age_seconds,
            max_bytes=max_bytes,
        )

    def compact(self) -> dict:
        """Drop unservable entries (corrupt, foreign-version, stale
        temp files) from the session's store; a no-op without one."""
        if self.store is None:
            return {"removed": 0, "reclaimed_bytes": 0}
        return self.store.compact()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _no_build_tree(program, heap, spec):  # pragma: no cover - guard only
    raise RuntimeError(
        "this inline-source workload has no tree builder; construct a "
        "Workload with build_tree to execute it"
    )
