"""Tree layouts: how a program's trees are represented at run time.

Two layouts exist, named by ``CompileOptions(layout=...)``:

* ``"object"`` — the seed representation:
  :class:`~repro.runtime.node.Node` objects whose ``fields`` dicts hold
  children and data directly. Zero ingest cost; every generated access
  is an attribute + dict hop.
* ``"pooled"`` — structure-of-arrays
  :class:`~repro.layout.pool.ForestPool` columns indexed by integer
  rows. Pays one serialization per tree (amortized across a batch via
  :meth:`ForestPool.clone`), then every generated access is a list
  subscript.

Each name has one code generator (:mod:`repro.codegen.python_backend`,
:mod:`repro.codegen.pooled_backend`) and one interpreter view
(:mod:`repro.interp.views`). The knob participates in the options hash,
so pooled and object artifacts content-address separately in every
storage tier.
"""

from __future__ import annotations

from repro.errors import ReproError

#: Every layout name, in one place: the CLI's ``--layout`` choices, the
#: interpreter's views, and :func:`check_layout` all read it.
LAYOUT_NAMES = ("object", "pooled")


def check_layout(name: str) -> None:
    """Raise for an unknown layout name, so a typo'd ``--layout`` fails
    before anything is compiled or cached."""
    if name not in LAYOUT_NAMES:
        known = ", ".join(LAYOUT_NAMES)
        raise ReproError(
            f"unknown tree layout {name!r} (known layouts: {known})"
        )
