"""Sustained-throughput load generator for the epoch engine.

The online-service reading of the paper's assignment problem cares about a
number the figures never show: how many churn epochs per second one engine
can sustain at steady state.  ``repro-dve loadgen`` (and the throughput
benchmark built on the same harness) answers it by streaming a long run of
identical churn epochs through one :class:`~repro.dynamics.engine.EpochSession`
and reporting

* steady-state **epochs/sec** and **events/sec** (events = joins + leaves +
  moves processed per epoch), measured after a warmup prefix so allocator
  ramp-up and branch warm-up never count;
* the **p50 / p99 epoch wall time**, from per-epoch timestamps;
* the per-phase wall-time split the engine already keeps; and, optionally,
* the per-phase **allocated bytes per epoch** at steady state, from a
  separate tracemalloc-instrumented pass (tracemalloc costs wall time, so it
  never taints the throughput numbers).

The harness takes a configured
:class:`~repro.dynamics.engine.ChurnSimulator` and opens a fresh session from
it for each pass, so the timing pass and the allocation pass replay the same
seeds (pass an integer seed) and the same record stream.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.dynamics.engine import ChurnSimulator
from repro.io.tables import format_table

__all__ = ["LoadgenResult", "run_loadgen", "format_loadgen"]


@dataclass(frozen=True)
class LoadgenResult:
    """Steady-state throughput measurements of one epoch-engine run."""

    label: str
    policy: str
    epochs: int
    warmup: int
    events_per_epoch: int
    wall_seconds: float
    epochs_per_sec: float
    events_per_sec: float
    p50_epoch_ms: float
    p99_epoch_ms: float
    phase_seconds: Dict[str, float]
    #: Steady-state tracemalloc peak bytes per phase *per epoch*; ``None``
    #: unless the alloc pass ran.
    phase_alloc_bytes_per_epoch: Optional[Dict[str, float]]
    #: ``EpochArena.stats()`` of the timing pass after the run.
    arena_stats: dict

    @property
    def alloc_bytes_per_epoch(self) -> Optional[float]:
        """Total steady-state allocated bytes per epoch across all phases."""
        if self.phase_alloc_bytes_per_epoch is None:
            return None
        return float(sum(self.phase_alloc_bytes_per_epoch.values()))


def _percentile(values: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of ``values`` with ``np.percentile``'s default
    linear interpolation, from one sort (``np.percentile`` loads ``numpy.ma``).
    """
    ordered = np.sort(values)
    position = q / 100.0 * (ordered.size - 1)
    lo = int(position)
    hi = min(lo + 1, ordered.size - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo))


def run_loadgen(
    simulator: ChurnSimulator,
    epochs: int = 300,
    warmup: int = 20,
    alloc_profile: bool = False,
    alloc_epochs: int = 40,
) -> LoadgenResult:
    """Measure sustained epoch throughput of one engine configuration.

    Runs ``warmup`` epochs unmeasured, then ``epochs`` measured epochs with a
    per-epoch timestamp.  When ``alloc_profile`` is set, a second session of
    the same simulator (same seeds, so the identical record stream) runs
    ``alloc_epochs`` steady-state epochs under tracemalloc to report
    per-phase allocated bytes per epoch without perturbing the timing pass.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")

    # Timing pass: no tracemalloc anywhere near it.
    session = simulator.session(warmup + epochs)
    if warmup:
        session.run_batch(warmup)
    for key in session.phase_seconds:
        session.phase_seconds[key] = 0.0
    epoch_walls = np.empty(epochs, dtype=np.float64)
    t_start = time.perf_counter()
    prev = t_start
    for i in range(epochs):
        session.run_epoch()
        now = time.perf_counter()
        epoch_walls[i] = now - prev
        prev = now
    wall = time.perf_counter() - t_start

    phase_alloc: Optional[Dict[str, float]] = None
    if alloc_profile:
        alloc_epochs = min(alloc_epochs, epochs)
        alloc_session = simulator.session(warmup + alloc_epochs)
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        try:
            alloc_session.alloc_profile = True
            if warmup:
                alloc_session.run_batch(warmup)
            for key in alloc_session.phase_alloc_bytes:
                alloc_session.phase_alloc_bytes[key] = 0
            alloc_session.run_batch(alloc_epochs)
            phase_alloc = {
                key: value / alloc_epochs
                for key, value in alloc_session.phase_alloc_bytes.items()
            }
        finally:
            if started_here:
                tracemalloc.stop()

    churn = simulator.churn_spec
    events_per_epoch = churn.num_joins + churn.num_leaves + churn.num_moves
    epochs_per_sec = epochs / wall if wall > 0 else float("inf")
    return LoadgenResult(
        label=simulator.scenario.config.label,
        policy=session.schedule.name,
        epochs=epochs,
        warmup=warmup,
        events_per_epoch=events_per_epoch,
        wall_seconds=wall,
        epochs_per_sec=epochs_per_sec,
        events_per_sec=events_per_epoch * epochs_per_sec,
        p50_epoch_ms=_percentile(epoch_walls, 50) * 1e3,
        p99_epoch_ms=_percentile(epoch_walls, 99) * 1e3,
        phase_seconds=dict(session.phase_seconds),
        phase_alloc_bytes_per_epoch=phase_alloc,
        arena_stats=session.state.arena.stats(),
    )


def format_loadgen(result: LoadgenResult) -> str:
    """Render the measured run as a one-row table."""
    alloc = result.alloc_bytes_per_epoch
    return format_table(
        ["epochs/s", "events/s", "p50 ms", "p99 ms", "alloc B/epoch"],
        [
            [
                result.epochs_per_sec,
                result.events_per_sec,
                result.p50_epoch_ms,
                result.p99_epoch_ms,
                "-" if alloc is None else f"{alloc:.0f}",
            ]
        ],
        title=(
            f"Epoch throughput: {result.label}, {result.policy} policy, "
            f"{result.epochs} epochs after {result.warmup} warmup"
        ),
        float_format=".1f",
    )
