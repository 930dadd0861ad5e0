"""Packaging for the ``repro`` package (sources under ``src/``).

There is no ``pyproject.toml``: the metadata lives here. The version is
read from ``src/repro/__init__.py`` without importing the package.
``pip install -e .`` falls back to ``setup.py develop`` when the
``wheel`` package (needed for PEP 660 editable installs) is missing.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Grafter reproduction: sound, fine-grained traversal "
    "fusion for heterogeneous trees (PLDI 2019)",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
