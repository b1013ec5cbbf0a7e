"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables / figures (or one of the
extension experiments), times it with pytest-benchmark and prints
the formatted rows.  With ``REPRO_BENCH_UPDATE=1`` it also archives them under
``benchmarks/results/`` and rewrites its ``BENCH_*.json`` at the repository
root; without the flag (the tier-1 run) the committed artifacts stay
untouched, so a test run leaves the working tree clean.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.io.serialization import dump_json

RESULTS_DIR = Path(__file__).parent / "results"


def bench_runs(default: int) -> int:
    """Replication count for a benchmark, overridable via ``REPRO_BENCH_RUNS``.

    CI's benchmark-smoke job sets ``REPRO_BENCH_RUNS=1`` so every paper
    table/figure driver is exercised end-to-end in seconds; local full runs
    keep each benchmark's own default.
    """
    value = os.environ.get("REPRO_BENCH_RUNS", "").strip()
    if not value:
        return default
    runs = int(value)
    if runs < 1:
        raise ValueError(f"REPRO_BENCH_RUNS must be >= 1, got {value!r}")
    return runs


def update_artifacts() -> bool:
    """True when ``REPRO_BENCH_UPDATE=1``: benchmarks rewrite their artifacts."""
    return os.environ.get("REPRO_BENCH_UPDATE", "").strip() == "1"


def record_result(name: str, text: str) -> Path:
    """Print an experiment's formatted output; archive it under results/ on update."""
    path = RESULTS_DIR / f"{name}.txt"
    if not update_artifacts():
        print(f"\n{text}\n")
        return path
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


def record_json(payload: dict, path: Path) -> Path:
    """Write a benchmark's machine-readable results to ``path`` on update."""
    if update_artifacts():
        dump_json(payload, path)
    return path


@pytest.fixture(scope="session")
def record():
    """Fixture wrapper around :func:`record_result`."""
    return record_result
