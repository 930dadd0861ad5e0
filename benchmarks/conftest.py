"""Shared benchmark fixtures.

Every paper-table benchmark (a) regenerates one paper table/figure via
:mod:`repro.bench.experiments`, printing it and writing it under
``benchmark_results/`` (committed: the tables are deterministic, and CI
diffs them), and (b) times a representative fused/unfused run pair with
pytest-benchmark so `--benchmark-only` output shows the wall-clock
comparison too.

The wall-clock perf benchmarks write their reports to
``benchmark_results/perf/`` instead. Those numbers change with every
run and host, so the directory is git-ignored and a test run leaves
the checkout clean.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmark_results"
PERF_RESULTS_DIR = RESULTS_DIR / "perf"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def perf_results_dir() -> pathlib.Path:
    """Where wall-clock reports go: untracked, rewritten every run."""
    PERF_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return PERF_RESULTS_DIR


@pytest.fixture(scope="session")
def report(results_dir):
    """report(name, text): print and persist one experiment report."""

    def write(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return write
