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

:func:`compile_program` / :func:`compile_fused` are routed through
``repro.pipeline`` and its content-addressed cache: compiling the same
program twice (even via different entry points — these helpers, the CLI,
the bench runner) emits and ``exec``-compiles the module once. The
emission primitives (``emit_module`` / ``emit_fused_module`` and the
``Compiled*`` classes) stay cache-free in
:mod:`repro.codegen.python_backend`.
"""

from repro.codegen.python_backend import (
    CompiledFused,
    CompiledProgram,
    emit_fused_module,
    emit_module,
)


def compile_program(program) -> CompiledProgram:
    """Compiled (unfused) module for *program*, memoized by content.

    The artifact cache is consulted first (the pipeline's emit stage
    stores unfused modules under the same content key, so this shares
    with every other entry point). On a miss, programs with an entry
    sequence go through the full staged pipeline
    (``repro.pipeline.compile``) so the fused artifacts land in the
    cache too; entry-less programs — nothing to fuse — are emitted
    directly.
    """
    from repro.pipeline import GLOBAL_CACHE, CompileOptions, hash_program
    from repro.pipeline import compile as pipeline_compile

    key = ("unfused-module", hash_program(program))
    cached = GLOBAL_CACHE.get_artifact(key)
    if cached is not None:
        return cached
    if program.root_type_name is None or not program.entry:
        cached = CompiledProgram(program)
        GLOBAL_CACHE.put_artifact(key, cached)
        return cached
    result = pipeline_compile(program, options=CompileOptions(emit=True))
    return result.compiled_unfused


def compile_fused(fused) -> CompiledFused:
    """Compiled module for an already-fused program, memoized on the
    content of (program, fused form) so custom-limit fusions cache too."""
    from repro.fusion.fused_ir import print_fused_program
    from repro.pipeline import GLOBAL_CACHE, hash_program
    from repro.pipeline.options import hash_text

    key = (
        "fused-module",
        hash_program(fused.program),
        hash_text(print_fused_program(fused)),
    )
    cached = GLOBAL_CACHE.get_artifact(key)
    if cached is None:
        cached = CompiledFused(fused)
        GLOBAL_CACHE.put_artifact(key, cached)
    return cached


__all__ = [
    "CompiledProgram",
    "CompiledFused",
    "compile_program",
    "compile_fused",
    "emit_module",
    "emit_fused_module",
]
