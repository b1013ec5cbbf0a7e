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

from repro.core.optimal import OptimalOptions, solve_cap_optimal
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.experiments.config import PAPER_TABLE1_LABELS, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.io.tables import format_table
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.utils.timing import Timer
from repro.world.scenario import build_scenario

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
    pathological instance cannot hang the harness.
    """
    solvers = list(solvers or PAPER_ALGORITHM_ORDER)
    rng = as_generator(seed)
    label_rngs = spawn_generators(rng, len(labels))

    runtimes: Dict[str, Dict[str, float]] = {}
    sizes: Dict[str, Dict[str, int]] = {}
    all_solvers = list(solvers) + (["optimal"] if optimal_labels else [])

    for label, label_rng in zip(labels, label_rngs):
        config = apply_delay_backend(
            config_from_label(label, correlation=correlation), delay_backend
        )
        run_rngs = spawn_generators(label_rng, num_runs)
        per_solver: Dict[str, List[float]] = {s: [] for s in all_solvers}
        for run_index in range(num_runs):
            scenario_rng, solve_rng = spawn_generators(run_rngs[run_index], 2)
            scenario = build_scenario(config, seed=scenario_rng)
            instance = CAPInstance.from_scenario(scenario)
            for solver in solvers:
                with Timer() as timer:
                    registry_solve(instance, solver, seed=solve_rng)
                per_solver[solver].append(timer.elapsed)
            if label in set(optimal_labels):
                with Timer() as timer:
                    solve_cap_optimal(
                        instance, options=OptimalOptions(time_limit=optimal_time_limit)
                    )
                per_solver["optimal"].append(timer.elapsed)
        runtimes[label] = {
            s: (sum(v) / len(v)) for s, v in per_solver.items() if v
        }
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
