"""Delay-bound sensitivity experiment (extension E10).

The paper fixes the interactivity bound at D = 250 ms (FPS-grade) for Table 1
and at 200 ms for Figure 5, citing 500 ms as the RTS-grade requirement.  This
extension sweeps D across the whole range of game genres and reports how each
algorithm's pQoS and resource utilisation respond — showing where the greedy
refined phase (GreC) actually earns its bandwidth (tight bounds) and where it
is unnecessary (loose bounds).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table
from repro.utils.rng import SeedLike

__all__ = ["run_delay_bound", "format_delay_bound", "DEFAULT_BOUNDS_MS"]

#: Default sweep: from very tight twitch games to RTS-grade tolerance.
DEFAULT_BOUNDS_MS = (100.0, 150.0, 200.0, 250.0, 350.0, 500.0)


def run_delay_bound(
    label: str = PAPER_DEFAULT_LABEL,
    bounds_ms: Sequence[float] = DEFAULT_BOUNDS_MS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> SweepResult:
    """Sweep the interactivity bound D and evaluate every algorithm at each value.

    The underlying scenarios are identical across bounds (same seed stream);
    only the bound used for decisions and evaluation changes, so the series are
    directly comparable point-for-point.
    """
    config = apply_delay_backend(config_from_label(label), delay_backend)
    points = [SweepPoint(float(bound), config, delay_bound_ms=float(bound)) for bound in bounds_ms]
    algorithms = algorithms or PAPER_ALGORITHM_ORDER
    return run_sweep(points, algorithms, num_runs, seed, share_topology=True, workers=workers)


def format_delay_bound(result: SweepResult) -> str:
    """Render the sweep as two tables plus the GreC-over-VirC pQoS gain."""
    headers = ["delay bound (ms)"] + result.algorithms
    part_a = format_table(
        headers,
        result.panel("pqos"),
        title=f"Delay-bound sensitivity (E10): pQoS, {result.label}",
    )
    part_b = format_table(
        headers,
        result.panel("utilization"),
        title="Delay-bound sensitivity (E10): resource utilisation",
    )
    parts = [part_a, "", part_b]
    if "grez-grec" in result.algorithms and "grez-virc" in result.algorithms:
        gains = zip(result.pqos_series("grez-grec"), result.pqos_series("grez-virc"))
        parts += [
            "",
            format_table(
                ["delay bound (ms)", "pQoS gain of GreC over VirC"],
                [[bound, grec - virc] for bound, (grec, virc) in zip(result.keys, gains)],
                title="Where the refined phase pays off",
            ),
        ]
    return "\n".join(parts)
