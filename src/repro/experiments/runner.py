"""Multi-run experiment execution engine.

Every quantitative result in the paper "is obtained by averaging the results
of 50 simulation runs"; :func:`run_replications` is the engine that does the
averaging here.  One *run* means: build a fresh scenario from the
configuration (new topology sample, new placements, new client distribution),
optionally pass the instance through a delay-estimation error model, solve it
with every requested algorithm, and evaluate pQoS / resource utilisation of
each solution against the *true* instance.

Runs are independent by construction, and :func:`replicate` is the one
fan-out every replicated experiment goes through: it gives each run its own
child RNG from :func:`~repro.utils.rng.spawn_generators` and can execute the
runs on a process pool (``workers=4`` distributes them over four processes
and streams the per-run results back in run order).  Because every run's
randomness is fixed in the parent before any work is dispatched, the parallel
and serial paths produce bit-identical results for the same seed.

The paper's tables and figures are sweeps of such replications: Table 1 over
configurations, Table 4 over the estimation error, Figures 5 and 6 over the
correlation and the client distribution.  :func:`run_sweep` runs one
:func:`run_replications` per :class:`SweepPoint` and returns a
:class:`SweepResult`, which serves the per-point series, the two-metric
panels and the paper's "pQoS (R)" cell every sweep driver renders.  The
engine studies (Table 3, dynamics, scenarios, controller and federation)
call :func:`replicate` directly and aggregate
their per-run observations into a :class:`StudyResult`.  The ``simulate``
and ``federate`` commands replicate whole record streams with
:func:`replicate_records` and summarise them into a :class:`StudyResult`
one record at a time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import CAPInstance
from repro.core.registry import ensure_registered, solve as registry_solve
from repro.measurement.estimators import DelayEstimator
from repro.metrics.cdf import EmpiricalCDF, delay_cdf, merge_cdfs
from repro.metrics.summary import AggregateStat, RunningStats, aggregate
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
    "StudyResult",
    "evaluate_algorithms",
    "qos_cell",
    "replicate",
    "replicate_records",
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


def _run_replica(task) -> object:
    """One replica of :func:`replicate` (worker-side entry point; must be picklable)."""
    # Re-populate the solver registry when the pool uses a ``spawn`` /
    # ``forkserver`` start method (under ``fork`` this is a cached no-op).
    import repro.baselines  # noqa: F401

    run, point, stream = task
    world_rng, engine_rng = spawn_generators(stream, 2)
    return run(world_rng, engine_rng, **point)


def replicate(
    run: Callable[..., object],
    points: Sequence[Dict[str, object]],
    num_runs: int,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
) -> Iterator[object]:
    """Run ``num_runs`` independent replicas of every point; yield their results in order.

    ``seed`` spawns one child stream per replica, point-major: replica ``r``
    of point ``p`` gets child ``p * num_runs + r``.  Each child splits into a
    (world, engine) pair, and the replica calls the module-level
    ``run(world_rng, engine_rng, **point)``.  Every stream is fixed here,
    before any replica runs, so ``workers`` (see
    :func:`~repro.utils.pool.ordered_map`) changes where the replicas run but
    never what they return.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    points = list(points)
    streams = spawn_generators(as_generator(seed), len(points) * num_runs)
    tasks = [(run, points[i // num_runs], stream) for i, stream in enumerate(streams)]
    return ordered_map(_run_replica, tasks, workers=workers)


def _replica_records(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    build: Callable[..., object],
    num_epochs: int,
    **point: object,
) -> list:
    """Every record of one replica of :func:`replicate_records` (worker-side; picklable)."""
    return build(world_rng, engine_rng, **point).run(num_epochs)


def replicate_records(
    build: Callable[..., object],
    point: Dict[str, object],
    num_epochs: int,
    num_runs: int,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    stream: Optional[Callable[[object], Iterable[object]]] = None,
) -> Iterator[Tuple[int, object]]:
    """Yield ``(run_index, record)`` over ``num_runs`` replicas of a simulator.

    ``build(world_rng, engine_rng, **point)`` is a module-level function
    returning a simulator with ``stream(num_epochs)`` and ``run(num_epochs)``.
    A single run streams its records from ``stream(simulator)`` (default:
    ``simulator.stream(num_epochs)``), so it holds O(1) records even for
    thousands of epochs; more runs go out over :func:`replicate` and come
    back run by run.
    """
    if num_runs == 1:
        (simulator,) = replicate(build, [point], 1, seed)
        records = simulator.stream(num_epochs) if stream is None else stream(simulator)
        for record in records:
            yield 0, record
        return
    task = dict(point, build=build, num_epochs=num_epochs)
    runs = replicate(_replica_records, [task], num_runs, seed, workers)
    for run_index, records in enumerate(runs):
        for record in records:
            yield run_index, record


def _replication_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    algorithms: Tuple[str, ...],
    estimator: Optional[DelayEstimator],
    delay_bound_ms: Optional[float],
    collect_delays: bool,
    topology: Optional[object],
    delay_model: Optional[object],
) -> Dict[str, RunObservation]:
    """One :func:`run_replications` run: a fresh scenario, every algorithm evaluated."""
    scenario = build_scenario(config, seed=world_rng, topology=topology, delay_model=delay_model)
    return evaluate_algorithms(
        scenario,
        algorithms,
        seed=engine_rng,
        estimator=estimator,
        delay_bound_ms=delay_bound_ms,
        collect_delays=collect_delays,
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
    ensure_registered(algorithms)
    run_seed = seed
    shared_topology = None
    shared_delay_model = None
    if share_topology:
        import copy

        from repro.topology.brite import generate_topology
        from repro.topology.delays import DelayModel

        # The shared topology has always drawn from the seed after the run
        # streams were spawned from it, so replicate() gets a copy of the seed
        # taken before that spawn.
        rng = as_generator(seed)
        run_seed = copy.deepcopy(rng)
        spawn_generators(rng, num_runs)
        shared_topology = generate_topology(config.topology, seed=as_generator(seed))
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

    point = dict(
        config=config,
        algorithms=tuple(algorithms),
        estimator=estimator,
        delay_bound_ms=delay_bound_ms,
        collect_delays=collect_delays,
        topology=shared_topology,
        delay_model=shared_delay_model,
    )
    per_algorithm: Dict[str, List[RunObservation]] = {name: [] for name in algorithms}
    try:
        for observations in replicate(_replication_run, [point], num_runs, run_seed, workers):
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


@dataclass(frozen=True)
class StudyResult:
    """Cross-run aggregates of a replicated study, laid out as one table.

    ``stats`` maps ``(row, column)`` to the aggregate over runs; ``rows`` and
    ``columns`` fix the table order, and a tuple row key fills several
    leading cells.  ``setting`` holds what the study's title reports beyond
    the label and the run count.
    """

    label: str
    num_runs: int
    rows: List[Hashable]
    columns: List[Hashable]
    stats: Dict[Tuple[Hashable, Hashable], AggregateStat]
    setting: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        runs: Iterable[Dict[Tuple[Hashable, Hashable], float]],
        label: str,
        num_runs: int,
        rows: Sequence[Hashable],
        columns: Sequence[Hashable],
        **setting: object,
    ) -> "StudyResult":
        """Aggregate ``{(row, column): value}`` observations, streamed one group at a time.

        ``runs`` may be a generator: each group is folded in as it arrives.
        NaN values are skipped, and a cell with no observation gets a NaN
        mean with count 0.
        """
        merged: Dict[Tuple[Hashable, Hashable], RunningStats] = defaultdict(RunningStats)
        for observations in runs:
            for key, value in observations.items():
                value = float(value)
                if not math.isnan(value):
                    merged[key].add(value)
        empty = AggregateStat(mean=float("nan"), std=0.0, stderr=0.0, count=0)
        stats = {
            (row, column): merged[(row, column)].finalize() if (row, column) in merged else empty
            for row in rows
            for column in columns
        }
        return cls(label, num_runs, list(rows), list(columns), stats, setting)

    def mean(self, row: Hashable, column: Hashable) -> float:
        """Mean over runs of one cell."""
        return self.stats[(row, column)].mean

    def table(self) -> List[list]:
        """One row per row key: its cells, then the mean of every column."""
        return [
            [*(row if isinstance(row, tuple) else (row,))]
            + [self.mean(row, column) for column in self.columns]
            for row in self.rows
        ]
