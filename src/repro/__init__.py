"""Grafter reproduction: sound, fine-grained traversal fusion for
heterogeneous trees (PLDI 2019).

The front door is the unified workload API (:mod:`repro.api`)::

    import repro

    @repro.schema ... / @repro.traversal ...   # embedded definitions
    w = repro.Workload(...)                    # or bundle a string DSL
    repro.Session(cache_dir=...).compile(w).run(trees)

Lower layers stay importable directly: compile through
:mod:`repro.pipeline`; run with :mod:`repro.interp` (the interpreter,
metered for the paper's cost model) or :mod:`repro.codegen` (generated
Python); serve with :mod:`repro.service`.
"""

__version__ = "0.9.0"

# the public API surface re-exported from repro.api, resolved lazily so
# `from repro import __version__` (used by low-level modules like the
# artifact store) never drags the whole compile stack into the import
_API_EXPORTS = frozenset(
    {
        "Global",
        "cast",
        "default_globals",
        "entry",
        "entry_calls",
        "lower",
        "lower_module",
        "pure",
        "schema",
        "traversal",
        "Workload",
        "Session",
        "CompiledWorkload",
        "RunOutcome",
    }
)


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _API_EXPORTS)
