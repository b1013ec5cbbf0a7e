"""Registry of experiment drivers, keyed by the DESIGN.md experiment ids.

Each entry maps an experiment id (``table1``, ``figure4``, ...) to a small
descriptor holding the run function, a formatter and a human-readable
description; the CLI and the benchmark harness both dispatch through this
table so the set of reproducible artefacts lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Union

from repro.experiments import (
    ablation,
    baselines_compare,
    controller,
    delay_bound,
    dynamics,
    federation,
    figure4,
    figure5,
    figure6,
    runtime,
    scenarios,
    table1,
    table3,
    table4,
)
from repro.experiments.config import ExperimentConfig

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_experiment",
    "experiment_ids",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A runnable, formattable experiment.

    ``run`` accepts keyword arguments (at least ``num_runs`` and ``seed``;
    also ``workers`` when ``supports_workers``) and returns a result object;
    ``format`` turns that result into printable text.
    """

    experiment_id: str
    paper_artifact: str
    description: str
    run: Callable[..., object]
    format: Callable[[object], str]
    supports_workers: bool = True


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(
        "table1",
        "Table 1",
        "pQoS and resource utilisation across the four DVE configurations",
        table1.run_table1,
        table1.format_table1,
    ),
    "figure4": ExperimentSpec(
        "figure4",
        "Figure 4",
        "CDF of client-to-target-server delays on 30s-160z-2000c-1000cp",
        figure4.run_figure4,
        figure4.format_figure4,
    ),
    "figure5": ExperimentSpec(
        "figure5",
        "Figure 5",
        "pQoS and utilisation vs physical-virtual correlation (D = 200 ms)",
        figure5.run_figure5,
        figure5.format_figure5,
    ),
    "figure6": ExperimentSpec(
        "figure6",
        "Figure 6",
        "pQoS and utilisation vs clustered client distributions (types 0-3)",
        figure6.run_figure6,
        figure6.format_figure6,
    ),
    "table3": ExperimentSpec(
        "table3",
        "Table 3",
        "pQoS before / after / re-executed around join-leave-move churn",
        table3.run_table3,
        table3.format_table3,
    ),
    "table4": ExperimentSpec(
        "table4",
        "Table 4",
        "pQoS and utilisation with delay-estimation error (King, IDMaps)",
        table4.run_table4,
        table4.format_table4,
    ),
    "ablation": ExperimentSpec(
        "ablation",
        "(extension)",
        "Design-choice ablation of the greedy heuristics",
        ablation.run_ablation,
        ablation.format_ablation,
    ),
    "baselines": ExperimentSpec(
        "baselines",
        "(extension)",
        "Comparison against related-work baselines across configurations",
        baselines_compare.run_baseline_comparison,
        baselines_compare.format_baseline_comparison,
    ),
    "runtime": ExperimentSpec(
        "runtime",
        "(runtime discussion in Section 4.2)",
        "Solver execution times across configuration sizes",
        runtime.run_runtime,
        runtime.format_runtime,
        # Wall-clock measurements on a contended pool would be meaningless,
        # so the runtime experiment always executes serially.
        supports_workers=False,
    ),
    "dynamics": ExperimentSpec(
        "dynamics",
        "(extension)",
        "Longitudinal churn: per-epoch pQoS under a repair-policy schedule",
        dynamics.run_dynamics,
        dynamics.format_dynamics,
    ),
    "controller": ExperimentSpec(
        "controller",
        "(extension)",
        "Rebalance-controller trigger policies under elastic churn with migration costs",
        controller.run_controller,
        controller.format_controller,
    ),
    "federation": ExperimentSpec(
        "federation",
        "(extension)",
        "Cross-shard capacity arbiters on a federated multi-shard world",
        federation.run_federation,
        federation.format_federation,
    ),
    "scenarios": ExperimentSpec(
        "scenarios",
        "(extension)",
        "Incident scenario library: recovery metrics under graceful degradation",
        scenarios.run_scenarios,
        scenarios.format_scenarios,
    ),
    "delay-bound": ExperimentSpec(
        "delay-bound",
        "(extension)",
        "pQoS and utilisation as the interactivity bound D is swept (100-500 ms)",
        delay_bound.run_delay_bound,
        delay_bound.format_delay_bound,
    ),
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment spec by id (case-insensitive)."""
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key]


def experiment_ids() -> list[str]:
    """All experiment ids, sorted."""
    return sorted(EXPERIMENTS)


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    config: ExperimentConfig,
) -> object:
    """Run an experiment under the given execution settings.

    ``workers`` is forwarded only to drivers that support parallel execution
    (all except ``runtime``).
    """
    spec = experiment if isinstance(experiment, ExperimentSpec) else get_experiment(experiment)
    return spec.run(**config.run_kwargs(supports_workers=spec.supports_workers))
