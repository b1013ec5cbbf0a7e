"""Delay-bound sensitivity experiment (extension E10).

The paper fixes the interactivity bound at D = 250 ms (FPS-grade) for Table 1
and at 200 ms for Figure 5, citing 500 ms as the RTS-grade requirement.  This
extension sweeps D across the whole range of game genres and reports how each
algorithm's pQoS and resource utilisation respond — showing where the greedy
refined phase (GreC) actually earns its bandwidth (tight bounds) and where it
is unnecessary (loose bounds).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, ExperimentSpec
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table

__all__ = ["DELAY_BOUND", "format_delay_bound", "DEFAULT_BOUNDS_MS"]

#: Default sweep: from very tight twitch games to RTS-grade tolerance.
DEFAULT_BOUNDS_MS = (100.0, 150.0, 200.0, 250.0, 350.0, 500.0)


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> SweepResult:
    """One sweep point per bound D (ms) of ``spec.sweep``.

    The underlying scenarios are identical across bounds (same seed stream);
    only the bound used for decisions and evaluation changes, so the series are
    directly comparable point-for-point.
    """
    (world,) = worlds
    points = [SweepPoint(float(bound), world, delay_bound_ms=float(bound)) for bound in spec.sweep]
    return run_sweep(points, spec.algorithms, config, spec.share_topology)


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


#: The delay-bound sweep on the default configuration.
DELAY_BOUND = ExperimentSpec(
    experiment_id="delay-bound",
    paper_artifact="(extension)",
    description="pQoS and utilisation as the interactivity bound D is swept (100-500 ms)",
    execute=_execute,
    format=format_delay_bound,
    sweep=DEFAULT_BOUNDS_MS,
)
