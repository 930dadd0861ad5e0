"""Code generation: emit executable Python from traversal programs.

The original Grafter is a source-to-source tool — its output is C++ that
gets compiled and run. This package is the reproduction's equivalent
backend: it emits a self-contained Python module for a program (and for
its fused form), with dynamic dispatch precomputed into dictionaries and
access paths compiled to direct field operations.

Two uses:

* **deployment** — compiled traversals run an order of magnitude faster
  than the interpreter (no per-node dispatch over IR objects), which is
  what a downstream user wants once they trust the numbers;
* **verification** — the test suite runs the interpreter and the
  generated code on identical inputs and asserts identical final states,
  cross-checking both executions *and* the printed code generator.

Each tree layout has one backend module here
(:mod:`~repro.codegen.python_backend` for ``"object"``,
:mod:`~repro.codegen.pooled_backend` for ``"pooled"``), and every
generated module is built one way: per-method and per-unit pieces, an
assembler, a module class. :data:`repro.layout.base.LAYOUTS` maps each
layout name to those parts. Compile through :func:`repro.pipeline.compile`
(the emit pass stores each piece as a compilation unit and each module in
the memory tier); :meth:`repro.layout.base.LayoutBackend.unfused_module`
and :meth:`~repro.layout.base.LayoutBackend.fused_module` build a module
directly, with no store.
"""

from repro.codegen.python_backend import CompiledFused, CompiledProgram

__all__ = ["CompiledProgram", "CompiledFused"]
