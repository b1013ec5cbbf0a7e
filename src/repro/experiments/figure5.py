"""Experiment E3 — Figure 5: impact of the physical↔virtual correlation.

Reproduces the paper's Figure 5: on the default configuration
(20s-80z-1000c-500cp) with delay bound D = 200 ms, sweep the correlation
parameter δ over {0, 0.2, ..., 1.0} and report, per algorithm, (a) pQoS and
(b) resource utilisation.

Expected shape (the paper's finding): the pQoS of the delay-aware initial
assignments (GreZ-VirC, GreZ-GreC) increases markedly with δ while the RanZ
variants stay roughly flat, and GreZ-GreC's resource utilisation falls as δ
grows (fewer clients need forwarding when their zone's server is nearby).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, ExperimentSpec
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table

__all__ = ["FIGURE5", "format_figure5"]

#: Correlation values swept by the paper.
DEFAULT_CORRELATIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
#: The delay bound used for Figure 5 (the paper sets D = 200 ms here).
FIGURE5_DELAY_BOUND_MS = 200.0


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> SweepResult:
    """One sweep point per correlation δ of ``spec.sweep``."""
    (world,) = worlds
    points = [
        SweepPoint(
            float(delta),
            world.with_updates(correlation=float(delta), delay_bound_ms=FIGURE5_DELAY_BOUND_MS),
        )
        for delta in spec.sweep
    ]
    return run_sweep(points, spec.algorithms, config, spec.share_topology)


def format_figure5(result: SweepResult) -> str:
    """Render both panels (pQoS and resource utilisation) as text tables."""
    headers = ["correlation"] + result.algorithms
    part_a = format_table(
        headers,
        result.panel("pqos"),
        title=(
            f"Figure 5(a): pQoS vs correlation, {result.label}, "
            f"D={FIGURE5_DELAY_BOUND_MS:.0f} ms"
        ),
    )
    part_b = format_table(
        headers,
        result.panel("utilization"),
        title="Figure 5(b): resource utilisation vs correlation",
    )
    return part_a + "\n\n" + part_b


#: Figure 5: the correlation sweep on the default configuration.
FIGURE5 = ExperimentSpec(
    experiment_id="figure5",
    paper_artifact="Figure 5",
    description="pQoS and utilisation vs physical-virtual correlation (D = 200 ms)",
    execute=_execute,
    format=format_figure5,
    sweep=DEFAULT_CORRELATIONS,
)
