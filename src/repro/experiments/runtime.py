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
from typing import Dict, List, Optional

import numpy as np

from repro.core.optimal import OptimalOptions, solve_cap_optimal
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.experiments.config import PAPER_TABLE1_LABELS, ExperimentConfig, ExperimentSpec
from repro.experiments.runner import replicate
from repro.io.tables import format_table
from repro.utils.timing import Timer
from repro.world.scenario import DVEConfig, build_scenario

__all__ = ["RUNTIME", "RuntimeResult", "format_runtime"]

#: Per-phase time limit (seconds) of the exact MILP where it runs.
OPTIMAL_TIME_LIMIT_S = 120.0


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


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> RuntimeResult:
    """Measure each solver's mean wall time on every configuration.

    :data:`RUNTIME` does not support workers, so :func:`run` hands this a
    serial ``config``.

    The exact MILP runs on ``spec.exact_labels`` only (none by default: the
    large instances would dominate the experiment's own wall-clock time, just
    as ``lp_solve`` did in the paper), with :data:`OPTIMAL_TIME_LIMIT_S` per
    phase so a pathological instance cannot hang the harness.
    """
    solvers = list(spec.algorithms)
    points = [
        dict(
            config=world,
            solvers=solvers,
            optimal_time_limit=OPTIMAL_TIME_LIMIT_S if label in spec.exact_labels else None,
        )
        for label, world in zip(spec.labels, worlds)
    ]
    runs = replicate(_runtime_run, points, config.num_runs, config.seed, config.workers)

    runtimes: Dict[str, Dict[str, float]] = {}
    sizes: Dict[str, Dict[str, int]] = {}
    for label, world in zip(spec.labels, worlds):
        per_run = [next(runs) for _ in range(config.num_runs)]
        runtimes[label] = {s: sum(run[s] for run in per_run) / config.num_runs for s in per_run[0]}
        sizes[label] = {
            "servers": world.num_servers,
            "zones": world.num_zones,
            "clients": world.num_clients,
        }

    return RuntimeResult(
        labels=list(spec.labels),
        solvers=solvers + (["optimal"] if spec.exact_labels else []),
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


#: The runtime study: the paper's four algorithms on every Table 1
#: configuration.  Wall-clock measurements on a contended pool would be
#: meaningless, so it always executes serially.
RUNTIME = ExperimentSpec(
    experiment_id="runtime",
    paper_artifact="(runtime discussion in Section 4.2)",
    description="Solver execution times across configuration sizes",
    execute=_execute,
    format=format_runtime,
    labels=PAPER_TABLE1_LABELS,
    supports_workers=False,
)
