"""The one-object workload bundle.

Before this existed, feeding the fusion engine a program meant carrying
four parallel artifacts — source text (or a ``Program``), a
``pure_impls`` dict, a ``globals_map``, and a ``build_tree`` callable —
separately through every layer (``pipeline.compile``, ``ExecRequest``,
the service registry, the bench runner, each example). A
:class:`Workload` bundles them once; every layer now accepts the bundle.

Workloads are frozen and, when their pieces are module-level (tree
builders, spec factories, portable pure impls), picklable — so one
object travels from the embedding API through the service's process
workers and the on-disk artifact store unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.errors import WorkloadError
from repro.ir.program import Program


@dataclass(frozen=True)
class Workload:
    """A named, runnable traversal workload.

    * ``source`` — Grafter source text or a built
      :class:`~repro.ir.program.Program` (embedded definitions lower to
      Programs; the string DSL stays available as the advanced path).
    * ``build_tree`` — ``(program, heap, spec) -> root`` realizing one
      tree from a picklable spec.
    * ``globals_map`` — runtime values for the program's globals.
    * ``pure_impls`` — bound pure-function impls; only meaningful with
      string sources (Programs already carry their impls).
    * ``make_spec`` — optional ``(**kwargs) -> spec`` factory for
      size-parameterized default inputs (``pages=4``, ``depth=6``, …).
    """

    name: str
    source: Union[str, Program]
    build_tree: Callable
    globals_map: Optional[Mapping] = None
    pure_impls: Optional[Mapping] = None
    make_spec: Optional[Callable] = None
    description: str = ""

    def __post_init__(self):
        if isinstance(self.source, Program) and self.pure_impls:
            raise WorkloadError(
                f"workload {self.name!r}: a Program source already "
                f"binds its impls; pure_impls is for string sources"
            )

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_program(
        program: Program,
        build_tree: Callable,
        *,
        name: Optional[str] = None,
        globals_map: Optional[Mapping] = None,
        make_spec: Optional[Callable] = None,
        description: str = "",
    ) -> "Workload":
        return Workload(
            name=name or program.name,
            source=program,
            build_tree=build_tree,
            globals_map=globals_map,
            make_spec=make_spec,
            description=description,
        )

    @staticmethod
    def from_source(
        name: str,
        source: str,
        build_tree: Callable,
        *,
        pure_impls: Optional[Mapping] = None,
        globals_map: Optional[Mapping] = None,
        make_spec: Optional[Callable] = None,
        description: str = "",
    ) -> "Workload":
        return Workload(
            name=name,
            source=source,
            build_tree=build_tree,
            globals_map=globals_map,
            pure_impls=pure_impls,
            make_spec=make_spec,
            description=description,
        )

    # -- identity -------------------------------------------------------

    def source_hash(self) -> str:
        """The content hash compilation will key this workload under.

        Computed once per instance: hashing a ``Program`` prints it,
        and every served request asks twice (grouping, then the compile
        lookup). ``dataclasses.replace`` builds a new instance, so an
        edited workload hashes afresh."""
        cached = self.__dict__.get("_source_hash")
        if cached is None:
            from repro.pipeline import hash_program, hash_source

            if isinstance(self.source, Program):
                cached = hash_program(self.source)
            else:
                cached = hash_source(
                    self.source, dict(self.pure_impls or {})
                )
            object.__setattr__(self, "_source_hash", cached)
        return cached

    def __getstate__(self):
        # the memo stays in its process: a hash of id()-referenced
        # impls names other objects anywhere else
        state = dict(self.__dict__)
        state.pop("_source_hash", None)
        return state

    # -- inputs ---------------------------------------------------------

    def spec(self, **kwargs):
        """One default tree spec (requires ``make_spec``)."""
        if self.make_spec is None:
            raise WorkloadError(
                f"workload {self.name!r} has no make_spec; pass explicit "
                f"tree specs instead of a count"
            )
        return self.make_spec(**kwargs)

    def specs(self, trees: Union[int, Sequence], **kwargs) -> list:
        """Normalize a forest description: an int count becomes that
        many default specs, a sequence passes through."""
        if isinstance(trees, int):
            made = self.spec(**kwargs)
            return [made for _ in range(trees)]
        if kwargs:
            raise WorkloadError(
                "spec kwargs only apply when trees is a count"
            )
        return list(trees)

    # -- the compile/execute handles ------------------------------------

    def compile(self, options=None, **compile_kwargs):
        """Compile through the staged pipeline (see
        :func:`repro.pipeline.compile`)."""
        from repro.pipeline import compile as pipeline_compile

        return pipeline_compile(self, options=options, **compile_kwargs)

    def request(
        self,
        trees: Union[int, Sequence] = 8,
        *,
        options=None,
        fused: bool = True,
        collect: Optional[Callable] = None,
        mode: str = "compiled",
        **spec_kwargs,
    ):
        """An :class:`~repro.service.batching.ExecRequest` running this
        workload over a forest (an int count uses ``make_spec``).
        ``mode="interpret"`` runs the reference interpreter instead of a
        compiled artifact (zero compile latency; ``fused`` is ignored).
        """
        from repro.pipeline import CompileOptions
        from repro.service.batching import ExecRequest

        return ExecRequest(
            self,
            self.specs(trees, **spec_kwargs),
            options=options if options is not None else CompileOptions(),
            fused=fused,
            collect=collect,
            mode=mode,
        )
