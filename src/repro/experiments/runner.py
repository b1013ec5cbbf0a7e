"""Multi-run experiment execution engine.

Every quantitative result in the paper "is obtained by averaging the results
of 50 simulation runs"; :func:`run_replications` is the engine that does the
averaging here.  One *run* means: build a fresh scenario from the
configuration (new topology sample, new placements, new client distribution),
optionally pass the instance through a delay-estimation error model, solve it
with every requested algorithm, and evaluate pQoS / resource utilisation of
each solution against the *true* instance.

Runs are independent by construction (each gets its own child RNG from
:func:`~repro.utils.rng.spawn_generators`), so the engine can execute them on
a process pool: ``workers=4`` distributes the runs over four processes and
streams the per-run observations back in run order.  Because every run's
randomness is fixed in the parent before any work is dispatched, the parallel
and serial paths produce bit-identical observations for the same seed.

The paper's tables and figures are sweeps of such replications: Table 1 over
configurations, Table 4 over the estimation error, Figures 5 and 6 over the
correlation and the client distribution.  :func:`run_sweep` runs one
:func:`run_replications` per :class:`SweepPoint` and returns a
:class:`SweepResult`, which serves the per-point series, the two-metric
panels and the paper's "pQoS (R)" cell every sweep driver renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import CAPInstance
from repro.core.registry import ensure_registered, solve as registry_solve
from repro.measurement.estimators import DelayEstimator
from repro.metrics.cdf import EmpiricalCDF, delay_cdf, merge_cdfs
from repro.metrics.summary import AggregateStat, aggregate
from repro.utils.pool import ordered_map, resolve_workers
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.utils.timing import Timer
from repro.world.scenario import DVEConfig, DVEScenario, build_scenario

__all__ = [
    "RunObservation",
    "AlgorithmSummary",
    "ReplicatedResult",
    "SweepPoint",
    "SweepResult",
    "evaluate_algorithms",
    "qos_cell",
    "run_replications",
    "run_sweep",
]


@dataclass(frozen=True)
class RunObservation:
    """Metrics of one algorithm on one simulation run."""

    algorithm: str
    pqos: float
    utilization: float
    runtime_seconds: float
    capacity_exceeded: bool
    delays: Optional[np.ndarray] = None


@dataclass(frozen=True)
class AlgorithmSummary:
    """Aggregated metrics of one algorithm over all runs of an experiment."""

    algorithm: str
    pqos: AggregateStat
    utilization: AggregateStat
    runtime_seconds: AggregateStat
    capacity_exceeded_runs: int
    delay_cdf: Optional[EmpiricalCDF] = None


@dataclass(frozen=True)
class ReplicatedResult:
    """Result of :func:`run_replications`: per-algorithm summaries plus raw runs."""

    config: DVEConfig
    num_runs: int
    summaries: Dict[str, AlgorithmSummary]
    observations: Dict[str, List[RunObservation]] = field(default_factory=dict)

    def pqos(self, algorithm: str) -> float:
        """Mean pQoS of an algorithm."""
        return self.summaries[algorithm].pqos.mean

    def utilization(self, algorithm: str) -> float:
        """Mean resource utilisation of an algorithm."""
        return self.summaries[algorithm].utilization.mean

    def algorithms(self) -> List[str]:
        """Algorithm names in the order they were requested."""
        return list(self.summaries)


def evaluate_algorithms(
    scenario: DVEScenario,
    algorithms: Sequence[str],
    seed: SeedLike = None,
    estimator: Optional[DelayEstimator] = None,
    delay_bound_ms: Optional[float] = None,
    collect_delays: bool = False,
) -> Dict[str, RunObservation]:
    """Solve one scenario with several algorithms and evaluate them on true delays.

    Parameters
    ----------
    scenario:
        The materialised scenario.
    algorithms:
        Registered solver names.
    seed:
        Seed for the randomised algorithms (one sub-stream per algorithm).
    estimator:
        Optional delay-estimation service; when given, algorithms *decide* on
        the estimated instance but are *evaluated* on the true one (Table 4).
    delay_bound_ms:
        Override of the scenario's delay bound (Figure 5 uses D = 200 ms).
    collect_delays:
        Also return the per-client delay vector of each solution (Figure 4).
    """
    ensure_registered(algorithms)
    rng = as_generator(seed)
    algo_rngs = spawn_generators(rng, len(algorithms) + 1)
    estimation_rng = algo_rngs[-1]

    true_instance = CAPInstance.from_scenario(scenario, delay_bound=delay_bound_ms)
    decision_instance = true_instance
    if estimator is not None and not estimator.model.is_perfect:
        decision_instance = estimator.estimate(true_instance, seed=estimation_rng)

    results: Dict[str, RunObservation] = {}
    for i, name in enumerate(algorithms):
        with Timer() as timer:
            assignment = registry_solve(decision_instance, name, seed=algo_rngs[i])
        delays = assignment.client_delays(true_instance)
        results[name] = RunObservation(
            algorithm=name,
            pqos=float((delays <= true_instance.delay_bound).mean()) if delays.size else 1.0,
            utilization=assignment.resource_utilization(true_instance),
            runtime_seconds=timer.elapsed,
            capacity_exceeded=assignment.capacity_exceeded,
            delays=delays.copy() if collect_delays else None,
        )
    return results


@dataclass(frozen=True)
class _RunTask:
    """Everything one simulation run needs, fixed in the parent process.

    The task (including its :class:`numpy.random.Generator`, whose seed
    sequence survives pickling) is the unit shipped to worker processes, so a
    run's result is a pure function of the task — independent of which worker
    executes it and in which order.
    """

    config: DVEConfig
    algorithms: Tuple[str, ...]
    rng: np.random.Generator
    estimator: Optional[DelayEstimator]
    delay_bound_ms: Optional[float]
    collect_delays: bool
    topology: Optional[object]
    delay_model: Optional[object]


def _execute_run(task: _RunTask) -> Dict[str, RunObservation]:
    """Execute one simulation run (worker-side entry point; must be picklable)."""
    # Re-populate the solver registry when the pool uses a ``spawn`` /
    # ``forkserver`` start method (under ``fork`` this is a cached no-op).
    import repro.baselines  # noqa: F401

    scenario_rng, eval_rng = spawn_generators(task.rng, 2)
    scenario = build_scenario(
        task.config,
        seed=scenario_rng,
        topology=task.topology,
        delay_model=task.delay_model,
    )
    return evaluate_algorithms(
        scenario,
        task.algorithms,
        seed=eval_rng,
        estimator=task.estimator,
        delay_bound_ms=task.delay_bound_ms,
        collect_delays=task.collect_delays,
    )


def run_replications(
    config: DVEConfig,
    algorithms: Sequence[str],
    num_runs: int = 5,
    seed: SeedLike = 0,
    estimator: Optional[DelayEstimator] = None,
    delay_bound_ms: Optional[float] = None,
    collect_delays: bool = False,
    cdf_grid: Optional[np.ndarray] = None,
    share_topology: bool = False,
    keep_observations: bool = False,
    workers: Optional[int] = None,
) -> ReplicatedResult:
    """Run ``num_runs`` independent simulation runs and aggregate the metrics.

    Parameters
    ----------
    config:
        DVE configuration to simulate.
    algorithms:
        Registered solver names to compare.
    num_runs:
        Number of independent runs (the paper uses 50; tests and benchmarks
        use fewer).
    seed:
        Master seed; every run gets an independent sub-stream.
    estimator / delay_bound_ms / collect_delays:
        Forwarded to :func:`evaluate_algorithms`.
    cdf_grid:
        Delay grid for the aggregated CDF (defaults to the Figure 4 range).
    share_topology:
        Reuse a single topology sample (and its all-pairs delay matrix) across
        runs; placements and distributions still vary.  Cuts run time roughly
        in half for quick exploratory sweeps.  With parallel workers the
        all-pairs RTT matrix is additionally published to shared memory
        before dispatch, so each task's pickled payload stays O(1) in the
        matrix and workers neither recompute nor receive a private copy —
        bit-identical to the plain pickling path.
    keep_observations:
        Also return the raw per-run observations.
    workers:
        Worker processes for the runs: ``None``/``1`` — serial (in-process),
        ``0`` — one per available CPU, ``n`` — exactly ``n`` processes.  The
        per-run observations are bit-identical for every worker count (only
        ``runtime_seconds``, a wall-clock measurement, may differ).
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    ensure_registered(algorithms)
    rng = as_generator(seed)
    run_rngs = spawn_generators(rng, num_runs)

    shared_topology = None
    shared_delay_model = None
    if share_topology:
        from repro.topology.brite import generate_topology
        from repro.topology.delays import DelayModel

        topo_rng = as_generator(seed if not isinstance(seed, np.random.Generator) else rng)
        shared_topology = generate_topology(config.topology, seed=topo_rng)
        shared_delay_model = DelayModel(
            shared_topology,
            max_rtt_ms=config.max_rtt_ms,
            server_mesh_factor=config.server_mesh_factor,
        )

    # Zero-copy dispatch: with parallel workers, materialise the shared RTT
    # matrix once and publish it to shared memory so every task pickles an
    # O(1) segment handle instead of recomputing (or shipping) the O(nodes²)
    # matrix per task.  Serial runs share the model object in-process anyway.
    use_shared_memory = (
        shared_delay_model is not None and resolve_workers(workers, num_tasks=num_runs) > 1
    )
    if use_shared_memory:
        shared_delay_model.share_rtt()

    tasks = [
        _RunTask(
            config=config,
            algorithms=tuple(algorithms),
            rng=run_rngs[run_index],
            estimator=estimator,
            delay_bound_ms=delay_bound_ms,
            collect_delays=collect_delays,
            topology=shared_topology,
            delay_model=shared_delay_model,
        )
        for run_index in range(num_runs)
    ]

    per_algorithm: Dict[str, List[RunObservation]] = {name: [] for name in algorithms}
    try:
        for observations in ordered_map(_execute_run, tasks, workers=workers):
            for name in algorithms:
                per_algorithm[name].append(observations[name])
    finally:
        if use_shared_memory:
            shared_delay_model.unshare_rtt()

    summaries: Dict[str, AlgorithmSummary] = {}
    for name in algorithms:
        obs = per_algorithm[name]
        cdf = None
        if collect_delays:
            cdfs = [
                delay_cdf(o.delays, grid=cdf_grid)
                for o in obs
                if o.delays is not None and o.delays.size
            ]
            cdf = merge_cdfs(cdfs) if cdfs else None
        summaries[name] = AlgorithmSummary(
            algorithm=name,
            pqos=aggregate([o.pqos for o in obs]),
            utilization=aggregate([o.utilization for o in obs]),
            runtime_seconds=aggregate([o.runtime_seconds for o in obs]),
            capacity_exceeded_runs=sum(1 for o in obs if o.capacity_exceeded),
            delay_cdf=cdf,
        )

    return ReplicatedResult(
        config=config,
        num_runs=num_runs,
        summaries=summaries,
        observations=per_algorithm if keep_observations else {},
    )


def qos_cell(pqos: float, utilization: float) -> str:
    """The paper's table cell: pQoS with the resource utilisation in brackets."""
    return f"{pqos:.2f} ({utilization:.2f})"


@dataclass(frozen=True)
class SweepPoint:
    """One point of a replicated sweep and its :func:`run_replications` keywords.

    ``algorithms`` replaces the sweep's algorithm list at this point only
    (Table 1 adds the exact MILP where it is tractable).
    """

    key: Hashable
    config: DVEConfig
    delay_bound_ms: Optional[float] = None
    estimator: Optional[DelayEstimator] = None
    algorithms: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class SweepResult:
    """Result of :func:`run_sweep`: one :class:`ReplicatedResult` per point, in order."""

    algorithms: List[str]
    results: Dict[Hashable, ReplicatedResult]

    @property
    def keys(self) -> List[Hashable]:
        """The point keys in sweep order."""
        return list(self.results)

    @property
    def label(self) -> str:
        """Configuration label of the first point (the world a one-config sweep varies)."""
        return next(iter(self.results.values())).config.label

    def pqos_series(self, algorithm: str) -> List[float]:
        """Mean pQoS of one algorithm at every point."""
        return [result.pqos(algorithm) for result in self.results.values()]

    def utilization_series(self, algorithm: str) -> List[float]:
        """Mean resource utilisation of one algorithm at every point."""
        return [result.utilization(algorithm) for result in self.results.values()]

    def panel(self, metric: str) -> List[list]:
        """One row per point: the key, then one ``metric`` column per algorithm."""
        if metric not in ("pqos", "utilization"):
            raise ValueError("metric must be 'pqos' or 'utilization'")
        return [
            [key] + [getattr(result, metric)(name) for name in self.algorithms]
            for key, result in self.results.items()
        ]

    def cell(self, key: Hashable, algorithm: str) -> str:
        """:func:`qos_cell` of one algorithm at one point; ``"-"`` where it did not run."""
        summary = self.results[key].summaries.get(algorithm)
        if summary is None:
            return "-"
        return qos_cell(summary.pqos.mean, summary.utilization.mean)


def run_sweep(
    points: Sequence[SweepPoint],
    algorithms: Sequence[str],
    num_runs: int = 5,
    seed: SeedLike = 0,
    share_topology: bool = False,
    workers: Optional[int] = None,
) -> SweepResult:
    """Run :func:`run_replications` at every point of a sweep, in order.

    Every point gets the same ``seed``; with an integer seed the points
    replay the same run streams, so they differ only in what the point
    changes (configuration, delay bound, estimator or algorithm list).
    """
    algorithms = list(algorithms)
    results = {
        point.key: run_replications(
            point.config,
            point.algorithms or algorithms,
            num_runs=num_runs,
            seed=seed,
            estimator=point.estimator,
            delay_bound_ms=point.delay_bound_ms,
            share_topology=share_topology,
            workers=workers,
        )
        for point in points
    }
    return SweepResult(algorithms=algorithms, results=results)
