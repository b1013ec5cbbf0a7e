"""Experiment E9 — algorithm execution times across instance sizes.

The paper reports that all four heuristics "took less than 1 second of
execution time" on every configuration, while the exact MILP needed 0.2 s on
the smallest configuration, 41.5 s on the second and did not finish within 10
hours on the larger two.  This experiment measures the wall-clock time of each
solver as a function of configuration size (heuristics on all configurations,
the MILP only where requested) so that the scaling behaviour — heuristics
roughly linear, exact solver combinatorial — can be verified on this
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.optimal import OptimalOptions, solve_cap_optimal
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.experiments.config import PAPER_TABLE1_LABELS, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import replicate
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.world.scenario import DVEConfig, build_scenario

__all__ = ["RuntimeResult", "run_runtime", "format_runtime"]


@dataclass(frozen=True)
class RuntimeResult:
    """Mean runtime (seconds) per solver and configuration."""

    labels: List[str]
    solvers: List[str]
    runtimes: Dict[str, Dict[str, float]]  # label -> solver -> seconds
    problem_sizes: Dict[str, Dict[str, int]]  # label -> {"clients":..., "zones":..., "servers":...}

    def rows(self) -> List[list]:
        """One row per configuration with per-solver runtimes in seconds."""
        rows = []
        for label in self.labels:
            sizes = self.problem_sizes[label]
            row: list = [label, sizes["servers"], sizes["zones"], sizes["clients"]]
            for solver in self.solvers:
                value = self.runtimes[label].get(solver)
                row.append("-" if value is None else value)
            rows.append(row)
        return rows


def _runtime_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    solvers: List[str],
    optimal_time_limit: Optional[float],
) -> Dict[str, float]:
    """One run: a fresh scenario, each solver's wall time on it (and the MILP's if limited)."""
    instance = CAPInstance.from_scenario(build_scenario(config, seed=world_rng))
    elapsed: Dict[str, float] = {}
    for solver in solvers:
        with Timer() as timer:
            registry_solve(instance, solver, seed=engine_rng)
        elapsed[solver] = timer.elapsed
    if optimal_time_limit is not None:
        with Timer() as timer:
            solve_cap_optimal(instance, options=OptimalOptions(time_limit=optimal_time_limit))
        elapsed["optimal"] = timer.elapsed
    return elapsed


def run_runtime(
    labels: Sequence[str] = PAPER_TABLE1_LABELS,
    solvers: Optional[Sequence[str]] = None,
    num_runs: int = 2,
    seed: SeedLike = 0,
    optimal_labels: Sequence[str] = (),
    optimal_time_limit: float = 60.0,
    correlation: float = 0.5,
    delay_backend: Optional[str] = None,
) -> RuntimeResult:
    """Measure solver runtimes per configuration.

    The exact MILP is only run on ``optimal_labels`` (empty by default: the
    large instances would dominate the experiment's own wall-clock time, just
    as ``lp_solve`` did in the paper), with a per-phase time limit so a
    pathological instance cannot hang the harness.  Runs always execute
    serially: timings taken on a contended process pool would be meaningless.
    """
    solvers = list(solvers or PAPER_ALGORITHM_ORDER)
    all_solvers = list(solvers) + (["optimal"] if optimal_labels else [])
    configs = [
        apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
        for label in labels
    ]
    points = [
        dict(
            config=config,
            solvers=solvers,
            optimal_time_limit=optimal_time_limit if label in optimal_labels else None,
        )
        for label, config in zip(labels, configs)
    ]
    runs = replicate(_runtime_run, points, num_runs, seed)

    runtimes: Dict[str, Dict[str, float]] = {}
    sizes: Dict[str, Dict[str, int]] = {}
    for label, config in zip(labels, configs):
        per_run = [next(runs) for _ in range(num_runs)]
        runtimes[label] = {s: sum(run[s] for run in per_run) / num_runs for s in per_run[0]}
        sizes[label] = {
            "servers": config.num_servers,
            "zones": config.num_zones,
            "clients": config.num_clients,
        }

    return RuntimeResult(
        labels=list(labels),
        solvers=all_solvers,
        runtimes=runtimes,
        problem_sizes=sizes,
    )


def format_runtime(result: RuntimeResult) -> str:
    """Render the runtime table (seconds)."""
    headers = ["DVE conf.", "servers", "zones", "clients"] + list(result.solvers)
    return format_table(
        headers,
        result.rows(),
        title="Runtime (E9): mean solver execution time in seconds",
        float_format=".4f",
    )
