"""Tree layouts: object graphs and structure-of-arrays forest pools."""

from repro.layout.base import LAYOUT_NAMES, check_layout
from repro.layout.pool import ForestPool, column_names

__all__ = [
    "LAYOUT_NAMES",
    "ForestPool",
    "check_layout",
    "column_names",
]
