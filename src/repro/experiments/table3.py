"""Experiment E5 — Table 3: pQoS under DVE dynamics (join / leave / move churn).

Reproduces the paper's Table 3: obtain an assignment for the default
configuration with correlation δ = 0, then let 200 new clients join, 200
existing clients leave and 200 clients move to another zone, and report each
algorithm's pQoS **before** the churn, **after** the churn with the stale
assignment, and after the algorithm is **re-executed** on the new population.
The incremental contact-only repair policy (not in the paper) is reported as a
fourth column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER, PAPER_TABLE3_PQOS
from repro.io.tables import format_table
from repro.metrics.summary import AggregateStat, aggregate
from repro.utils.pool import ordered_map
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.scenario import build_scenario

__all__ = ["Table3Result", "run_table3", "format_table3"]


@dataclass(frozen=True)
class Table3Result:
    """Aggregated before/after/re-executed pQoS per algorithm."""

    label: str
    algorithms: List[str]
    before: Dict[str, AggregateStat]
    after: Dict[str, AggregateStat]
    executed: Dict[str, AggregateStat]
    incremental: Dict[str, AggregateStat]

    def rows(self) -> List[list]:
        """One row per algorithm: before / after / re-executed / incremental."""
        rows = []
        for name in self.algorithms:
            rows.append(
                [
                    name,
                    self.before[name].mean,
                    self.after[name].mean,
                    self.executed[name].mean,
                    self.incremental[name].mean,
                ]
            )
        return rows

    def paper_rows(self) -> List[list]:
        """The paper's Table 3 values (no incremental column)."""
        rows = []
        for name in self.algorithms:
            paper = PAPER_TABLE3_PQOS.get(name)
            if paper is None:
                rows.append([name, "-", "-", "-"])
            else:
                rows.append([name, paper["before"], paper["after"], paper["executed"]])
        return rows


def _execute_churn_run(task) -> List[EpochRecord]:
    """One dynamics run (worker-side entry point; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    config, algorithms, churn, rng = task
    scenario_rng, sim_rng = spawn_generators(rng, 2)
    scenario = build_scenario(config, seed=scenario_rng)
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=list(algorithms),
        churn_spec=churn,
        seed=sim_rng,
    )
    return list(simulator.run(num_epochs=1))


def run_table3(
    label: str = PAPER_DEFAULT_LABEL,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    churn: ChurnSpec | None = None,
    correlation: float = 0.0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> Table3Result:
    """Run the dynamics experiment of Table 3.

    Every run builds a fresh scenario (new topology / placements), runs one
    churn epoch for every algorithm, and records the three measurement points;
    results are averaged over runs.  Runs are independent, so ``workers``
    distributes them over a process pool exactly as in
    :func:`~repro.experiments.runner.run_replications`.
    """
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    churn = churn or ChurnSpec()
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    rng = as_generator(seed)
    run_rngs = spawn_generators(rng, num_runs)

    tasks = [
        (config, tuple(algorithms), churn, run_rngs[i]) for i in range(num_runs)
    ]
    records: Dict[str, List[EpochRecord]] = {name: [] for name in algorithms}
    for run_records in ordered_map(_execute_churn_run, tasks, workers=workers):
        for record in run_records:
            records[record.algorithm].append(record)

    return Table3Result(
        label=label,
        algorithms=algorithms,
        before={n: aggregate([r.pqos_before for r in records[n]]) for n in algorithms},
        after={n: aggregate([r.pqos_after for r in records[n]]) for n in algorithms},
        executed={n: aggregate([r.pqos_reexecuted for r in records[n]]) for n in algorithms},
        incremental={n: aggregate([r.pqos_incremental for r in records[n]]) for n in algorithms},
    )


def format_table3(result: Table3Result, include_paper: bool = True) -> str:
    """Render the measured (and optionally the paper's) Table 3."""
    measured = format_table(
        ["algorithm", "before", "after", "re-executed", "incremental (ours)"],
        result.rows(),
        title=f"Table 3 (measured): pQoS with DVE dynamics, {result.label}, δ=0",
        float_format=".2f",
    )
    if not include_paper:
        return measured
    paper = format_table(
        ["algorithm", "before", "after", "executed"],
        result.paper_rows(),
        title="Table 3 (paper): pQoS with DVE dynamics",
        float_format=".2f",
    )
    return measured + "\n\n" + paper
