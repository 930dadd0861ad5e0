"""Tree layouts: object graphs and structure-of-arrays forest pools.

The table of layouts and their backends is :mod:`repro.layout.base`
(``LAYOUTS``, ``layout_backend``); import it by that name.
"""

from repro.layout.pool import ForestPool, column_names

__all__ = [
    "ForestPool",
    "column_names",
]
