"""Command-line interface: run experiments, solve single scenarios, inspect configs.

Installed as the ``repro-dve`` console script (see ``pyproject.toml``) and
runnable as ``python -m repro``.  Six sub-commands:

* ``repro-dve list`` — list the available experiments and solvers.
* ``repro-dve solve`` — build one scenario and solve it with one or more
  algorithms, printing pQoS / utilisation / runtime per algorithm.
* ``repro-dve experiment <id>`` — run a paper table / figure (or extension)
  and print the formatted result, optionally dumping it to JSON/CSV.
* ``repro-dve simulate`` — longitudinal churn simulation: stream epoch
  records through a repair-policy schedule (optionally to CSV) and print a
  streaming summary.
* ``repro-dve loadgen`` — sustained-throughput driver: steady-state epochs
  and events per second of one engine configuration.
* ``repro-dve federate`` — federated multi-shard simulation: several DVE
  shards on one topology and fleet, with cross-shard capacity arbitration
  between epochs.

The three engine commands (``simulate``, ``loadgen``, ``federate``) register
their shared flags from one table and turn them into a world config plus
engine keywords in one validation step (:func:`_engine_options`).  Every
command but ``list`` validates its inputs before any work starts; a bad
value prints one ``error:`` line and exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tracemalloc
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro import __version__
from repro.core import CAPInstance
from repro.core.arbitration import ARBITER_NAMES, make_arbiter
from repro.core.registry import get_solver, solve as registry_solve, solver_names
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.scenarios import SCENARIO_LIBRARY, build_timeline, check_event_zones
from repro.dynamics.federation_engine import AGGREGATE_SHARD_ID, FederatedSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import POLICY_NAMES, make_policy
from repro.experiments.config import (
    ExperimentConfig,
    PAPER_DEFAULT_LABEL,
    apply_delay_backend,
    config_from_label,
)
from repro.experiments.loadgen import format_loadgen, run_loadgen
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_experiment, run_experiment
from repro.io.csvout import CsvAppender
from repro.io.tables import format_kv, format_table
from repro.metrics import GroupedRunningStats, qos_report, resource_report
from repro.topology.delay_backends import DEFAULT_DELAY_BACKEND, DELAY_BACKENDS
from repro.utils.pool import ordered_map
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import check_positive
from repro.world import build_scenario
from repro.world.federation import build_federation
from repro.world.scenario import DVEConfig

__all__ = ["main", "build_parser"]


def _workers_type(value: str) -> int:
    """argparse type for ``--workers``: a non-negative integer (0 = all CPUs)."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = one per CPU), got {workers}")
    return workers


def _server_churn_type(value: str) -> ServerChurnSpec:
    """argparse type for ``--server-churn``: ``JOINS:LEAVES[:DRIFT]``.

    E.g. ``1:1`` (one server joins, one leaves, per epoch) or ``0:0:0.05``
    (fixed fleet size with 5 % capacity drift).
    """
    parts = value.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected JOINS:LEAVES[:DRIFT], got {value!r}"
        )
    try:
        joins, leaves = int(parts[0]), int(parts[1])
        drift = float(parts[2]) if len(parts) == 3 else 0.0
        return ServerChurnSpec(num_joins=joins, num_leaves=leaves, capacity_drift=drift)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid --server-churn {value!r}: {exc}") from None


def _weights_type(value: str) -> tuple:
    """argparse type for ``--shard-weights``: comma-separated positive floats."""
    try:
        weights = tuple(float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None
    if not weights or any(w <= 0 for w in weights):
        raise argparse.ArgumentTypeError("every shard weight must be positive")
    return weights


def _non_negative_float(value: str) -> float:
    """argparse type for non-negative float options."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return parsed


def _fraction_type(value: str) -> float:
    """argparse type for fractions in (0, 1] (e.g. ``--min-slice``)."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if not 0.0 < parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return parsed


#: Options that several commands share, by flag: their ``add_argument``
#: keyword arguments.  :func:`_add_flags` registers them; a command that
#: words one differently overrides its keywords there.
_SHARED_FLAGS = {
    "--config": dict(
        default=PAPER_DEFAULT_LABEL,
        help="DVE configuration label, e.g. 20s-80z-1000c-500cp",
    ),
    "--algorithms": dict(
        nargs="+",
        default=["grez-grec"],
        help="solver names to track across epochs (see 'repro-dve list')",
    ),
    "--epochs": dict(type=int, default=10, help="number of churn epochs"),
    "--policy": dict(
        default="reexecute",
        choices=sorted(POLICY_NAMES),
        help="per-epoch repair action schedule",
    ),
    "--period": dict(type=int, default=0, help="re-execution period for --policy every_k_epochs"),
    "--seed": dict(type=int, default=0, help="master RNG seed"),
    "--runs": dict(type=int, default=1, help="independent replications to aggregate over"),
    "--workers": dict(
        type=_workers_type,
        default=None,
        help="worker processes when --runs > 1 (default: serial; 0 = one per CPU)",
    ),
    "--joins": dict(type=int, default=200, help="clients joining per epoch"),
    "--leaves": dict(type=int, default=200, help="clients leaving per epoch"),
    "--moves": dict(type=int, default=200, help="clients moving zones per epoch"),
    "--migration-cost": dict(
        type=_non_negative_float,
        default=0.0,
        metavar="PER_CLIENT",
        help=(
            "state-transfer cost charged per migrated client when a zone changes "
            "hosting server (default: 0 = free, the paper's semantics)"
        ),
    ),
    "--migration-budget": dict(
        type=_non_negative_float,
        default=None,
        metavar="COST",
        help=(
            "per-epoch migration budget for scheduled re-executions: a re-execution "
            "billing above this is demoted to the incremental repair "
            "(needs --migration-cost > 0 to have any effect)"
        ),
    ),
    "--correlation": dict(type=float, default=0.0, help="physical-virtual correlation delta"),
    "--csv": dict(
        default=None,
        metavar="PATH",
        help="stream every epoch record to this CSV file as it is produced",
    ),
    "--delay-backend": dict(
        default=None,
        choices=DELAY_BACKENDS,
        help=(
            f"delay representation (default: {DEFAULT_DELAY_BACKEND}; 'coords' and "
            "'sparse' hold O(clients) state instead of the dense clients x servers "
            "matrix, trading a bounded pQoS accuracy loss for million-client scale)"
        ),
    ),
    "--scenario": dict(
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "incident scenario: a library name "
            f"({', '.join(sorted(SCENARIO_LIBRARY))}) or a 'kind:key=value,...' "
            "spec such as 'outage:zone=0,radius=4,start=3,duration=3'; repeat "
            "the flag to compose disturbances (composition is order-independent)"
        ),
    ),
    "--patience": dict(
        type=int,
        default=None,
        metavar="EPOCHS",
        help=(
            "epochs a shed client waits in the degraded pool before abandoning "
            "(default: wait forever; only meaningful with --scenario)"
        ),
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str, **overrides: dict) -> None:
    """Register shared flags on a sub-command parser, in the order given.

    ``overrides`` maps a flag's destination name (``epochs`` for
    ``--epochs``) to keyword arguments that replace the shared ones.
    """
    for flag in flags:
        dest = flag.lstrip("-").replace("-", "_")
        parser.add_argument(flag, **{**_SHARED_FLAGS[flag], **overrides.get(dest, {})})


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dve",
        description=(
            "Reproduction of 'Efficient Client-to-Server Assignments for Distributed "
            "Virtual Environments' (Ta & Zhou, IPDPS 2006)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    # list ------------------------------------------------------------------
    sub.add_parser("list", help="list available experiments and solvers")

    # solve -----------------------------------------------------------------
    solve = sub.add_parser("solve", help="solve one DVE scenario with one or more algorithms")
    solve.add_argument(
        "--config",
        default=PAPER_DEFAULT_LABEL,
        help="DVE configuration label, e.g. 20s-80z-1000c-500cp",
    )
    solve.add_argument(
        "--algorithms",
        nargs="+",
        default=["ranz-virc", "ranz-grec", "grez-virc", "grez-grec"],
        help="solver names (see 'repro-dve list')",
    )
    solve.add_argument("--seed", type=int, default=0, help="master RNG seed")
    solve.add_argument(
        "--correlation", type=float, default=0.5, help="physical-virtual correlation delta"
    )
    solve.add_argument(
        "--delay-bound-ms", type=float, default=None, help="override the delay bound D (ms)"
    )
    solve.add_argument(
        "--detail", action="store_true", help="also print the full QoS / resource reports"
    )
    _add_flags(solve, "--delay-backend")

    # experiment ------------------------------------------------------------
    exp = sub.add_parser("experiment", help="run one of the paper's tables / figures")
    exp.add_argument("experiment_id", choices=sorted(EXPERIMENTS), help="experiment id")
    exp.add_argument("--runs", type=int, default=3, help="simulation runs to average over")
    exp.add_argument("--seed", type=int, default=0, help="master RNG seed")
    exp.add_argument(
        "--workers",
        type=_workers_type,
        default=None,
        help=(
            "worker processes for the replication engine "
            "(default: serial; 0 = one per CPU; results are identical for any value)"
        ),
    )
    exp.add_argument(
        "--shard-workers",
        type=_workers_type,
        default=None,
        help=(
            "worker threads stepping federated shards within each epoch "
            "(federation experiment only; default: serial; 0 = one per CPU; "
            "records are identical for any value)"
        ),
    )
    _add_flags(exp, "--delay-backend")

    # simulate ---------------------------------------------------------------
    sim = sub.add_parser(
        "simulate",
        help="longitudinal churn simulation: many epochs under a repair policy",
    )
    _add_flags(sim, "--config", "--algorithms", "--epochs", "--policy", "--period", "--seed")
    _add_flags(sim, "--runs", "--workers", "--joins", "--leaves", "--moves")
    sim.add_argument(
        "--server-churn",
        type=_server_churn_type,
        default=None,
        metavar="J:L[:DRIFT]",
        help=(
            "infrastructure churn per epoch: servers joining, leaving and an "
            "optional relative capacity drift (e.g. 1:1:0.05); default: fixed fleet"
        ),
    )
    _add_flags(sim, "--migration-cost", "--migration-budget", "--correlation", "--csv")
    _add_flags(sim, "--delay-backend", "--scenario", "--patience")
    sim.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-phase wall-time breakdown (churn gen / world advance / "
            "solve / measure) after the summary (single-run only)"
        ),
    )

    # loadgen ----------------------------------------------------------------
    load = sub.add_parser(
        "loadgen",
        help="sustained-throughput driver: steady-state epochs/sec and events/sec",
    )
    _add_flags(
        load,
        "--config",
        "--algorithms",
        "--epochs",
        epochs=dict(default=300, help="measured steady-state epochs"),
    )
    load.add_argument(
        "--warmup", type=int, default=20, help="unmeasured warmup epochs before the clock starts"
    )
    _add_flags(load, "--policy", policy=dict(default="warm_start"))
    _add_flags(load, "--seed", "--joins", "--leaves", "--moves", "--correlation")
    load.add_argument(
        "--alloc-profile",
        action="store_true",
        help=(
            "also report steady-state allocated bytes per phase per epoch "
            "(separate tracemalloc pass; does not taint the timing numbers)"
        ),
    )
    load.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="dump the measured results as JSON to this path",
    )
    _add_flags(load, "--delay-backend")

    # federate ---------------------------------------------------------------
    fedp = sub.add_parser(
        "federate",
        help="federated multi-shard simulation with cross-shard capacity arbitration",
    )
    _add_flags(
        fedp,
        "--config",
        config=dict(help="base DVE configuration label; its clients are split across the shards"),
    )
    fedp.add_argument("--shards", type=int, default=3, help="number of shards (worlds)")
    fedp.add_argument(
        "--shard-weights",
        type=_weights_type,
        default=None,
        metavar="W1,W2,...",
        help=(
            "per-shard client-population weights (default: descending N,...,1 — "
            "a skewed federation, the interesting case for arbitration)"
        ),
    )
    fedp.add_argument(
        "--arbiter",
        default="proportional",
        choices=ARBITER_NAMES,
        help="cross-shard capacity arbiter run between epochs",
    )
    fedp.add_argument(
        "--min-slice",
        type=_fraction_type,
        default=0.02,
        metavar="FRACTION",
        help="minimum slice of every server each shard keeps (fraction of capacity)",
    )
    _add_flags(
        fedp,
        "--algorithms",
        "--epochs",
        "--policy",
        "--period",
        "--seed",
        "--runs",
        "--workers",
        algorithms=dict(
            help="solver names tracked in every shard (first drives arbitration signals)"
        ),
        policy=dict(help="per-epoch repair action schedule (applied in every shard)"),
        period=dict(help="re-execution period for every_k_epochs"),
    )
    fedp.add_argument(
        "--shard-workers",
        type=_workers_type,
        default=None,
        help=(
            "worker threads stepping the shards within each epoch "
            "(default: serial; 0 = one per CPU; the record stream is "
            "byte-identical for any value)"
        ),
    )
    fedp.add_argument(
        "--churn-fraction",
        type=_non_negative_float,
        default=0.1,
        metavar="FRACTION",
        help="per-epoch joins/leaves/moves, as a fraction of each shard's clients",
    )
    _add_flags(
        fedp,
        "--migration-cost",
        "--migration-budget",
        "--correlation",
        "--csv",
        "--delay-backend",
        "--scenario",
        "--patience",
        migration_cost=dict(
            default=1.0, help="state-transfer cost per migrated client (default: 1)"
        ),
        migration_budget=dict(help="per-shard per-epoch migration budget (default: unlimited)"),
        csv=dict(help="stream every per-shard and aggregate record to this CSV file"),
    )
    fedp.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-shard runtime breakdown (epoch wall / solve / measure / "
            "barrier wait) plus arbiter decision time after the summary "
            "(single-run only)"
        ),
    )

    return parser


def _cmd_list() -> int:
    rows = [
        [spec.experiment_id, spec.paper_artifact, spec.description]
        for spec in (EXPERIMENTS[i] for i in experiment_ids())
    ]
    print(format_table(["experiment", "paper artefact", "description"], rows, title="Experiments"))
    print()
    print(format_table(["solver"], [[name] for name in solver_names()], title="Solvers"))
    return 0


def _solve_options(args: argparse.Namespace) -> DVEConfig:
    """Validate ``solve``'s flags (config label, solver names, delay bound); return its config."""
    _check_algorithms(args.algorithms)
    if args.delay_bound_ms is not None:
        check_positive(args.delay_bound_ms, "--delay-bound-ms")
    return apply_delay_backend(
        config_from_label(args.config, correlation=args.correlation), args.delay_backend
    )


def _cmd_solve(args: argparse.Namespace, config: DVEConfig) -> int:
    scenario = build_scenario(config, seed=args.seed)
    instance = CAPInstance.from_scenario(scenario, delay_bound=args.delay_bound_ms)
    print(format_kv(scenario.summary(), title="Scenario"))
    print()

    rows: List[list] = []
    for name in args.algorithms:
        assignment = registry_solve(instance, name, seed=args.seed)
        rows.append(
            [
                name,
                assignment.pqos(instance),
                assignment.resource_utilization(instance),
                assignment.runtime_seconds * 1000.0,
                "yes" if assignment.capacity_exceeded else "no",
            ]
        )
        if args.detail:
            qos = qos_report(instance, assignment)
            res = resource_report(instance, assignment)
            print(format_kv(vars(qos) | vars(res), title=f"{name} detail"))
            print()
    print(
        format_table(
            ["algorithm", "pQoS", "utilisation", "runtime (ms)", "over capacity"],
            rows,
            title=f"Assignment results for {config.label}",
        )
    )
    return 0


def _check_algorithms(names: Sequence[str]) -> None:
    """Raise ``ValueError`` naming the first unregistered solver."""
    for name in names:
        try:
            get_solver(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None


#: What an engine command's flags resolve to: its world config and the engine
#: keyword arguments (see :func:`_engine_options`).
_EngineOptions = Tuple[DVEConfig, dict]


def _engine_options(args: argparse.Namespace) -> _EngineOptions:
    """Validate an engine command's flags; return its world config and engine keywords.

    The single validation step of ``simulate``, ``loadgen`` and
    ``federate``: every input error raises ``ValueError``, which
    :func:`main` prints before exiting with status 2.  The keywords are the
    ones :class:`ChurnSimulator` and :class:`FederatedSimulator` share —
    algorithms, migration model, policy, period, budget, incident timeline
    and admission policy — plus the per-epoch churn spec of the commands
    with ``--joins`` and the fleet churn of ``--server-churn``.
    """
    for flag, minimum in (("epochs", 1), ("runs", 1), ("warmup", 0), ("shards", 1)):
        if getattr(args, flag, minimum) < minimum:
            raise ValueError(f"--{flag} must be >= {minimum}")
    weights = getattr(args, "shard_weights", None)
    if weights is not None and len(weights) != args.shards:
        raise ValueError(f"--shard-weights needs exactly {args.shards} values")
    _check_algorithms(args.algorithms)
    period = getattr(args, "period", 0)
    make_policy(args.policy, period=period or None)
    config = apply_delay_backend(
        config_from_label(args.config, correlation=args.correlation), args.delay_backend
    )
    engine = dict(
        algorithms=list(args.algorithms),
        migration_cost=MigrationCostModel(cost_per_client=getattr(args, "migration_cost", 0.0)),
        policy=args.policy,
        policy_period=period,
        policy_migration_budget=getattr(args, "migration_budget", None),
    )
    server_churn = getattr(args, "server_churn", None)
    if getattr(args, "scenario", None):
        if server_churn is not None:
            raise ValueError(
                "--scenario drives the fleet itself and cannot be combined with --server-churn"
            )
        engine["scenario_timeline"] = build_timeline(args.scenario)
        check_event_zones(engine["scenario_timeline"], config.num_zones)
        engine["admission_policy"] = AdmissionPolicy(patience_epochs=args.patience)
    if hasattr(args, "joins"):
        engine["churn_spec"] = ChurnSpec(
            num_joins=args.joins, num_leaves=args.leaves, num_moves=args.moves
        )
    if server_churn is not None:
        engine["server_churn_spec"] = server_churn
    return config, engine


def _simulate_run(args: argparse.Namespace, options: _EngineOptions, rng) -> ChurnSimulator:
    """One ``simulate`` replication: a fresh world and churn stream from ``rng``."""
    config, engine = options
    scenario_rng, sim_rng = spawn_generators(rng, 2)
    return ChurnSimulator(
        scenario=build_scenario(config, seed=scenario_rng), seed=sim_rng, **engine
    )


def _federate_run(args: argparse.Namespace, options: _EngineOptions, rng) -> FederatedSimulator:
    """One ``federate`` replication: a fresh federated world from ``rng``."""
    config, engine = options
    fed_rng, sim_rng = spawn_generators(rng, 2)
    weights = (
        list(args.shard_weights)
        if args.shard_weights is not None
        else [float(args.shards - i) for i in range(args.shards)]
    )
    world = build_federation(config, num_shards=args.shards, seed=fed_rng, client_weights=weights)
    churn_specs = []
    for shard in world.shards:
        events = round(args.churn_fraction * shard.num_clients)
        churn_specs.append(ChurnSpec(num_joins=events, num_leaves=events, num_moves=events))
    return FederatedSimulator(
        world=world,
        arbiter=make_arbiter(args.arbiter, min_slice_fraction=args.min_slice),
        churn_spec=churn_specs,
        seed=sim_rng,
        shard_workers=args.shard_workers,
        **engine,
    )


def _execute_run(task) -> List[EpochRecord]:
    """One replication of an engine command (worker-side; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    build, args, options, rng = task
    return build(args, options, rng).run(args.epochs)


def _engine_records(
    args: argparse.Namespace,
    options: _EngineOptions,
    build: Callable,
    stream: Callable[[object], Iterator[EpochRecord]],
) -> Iterator[Tuple[int, EpochRecord]]:
    """Yield ``(run_index, record)`` over ``args.runs`` replications of ``build``.

    A single run streams from ``stream(simulator)``, so it holds O(1)
    records even for thousands of epochs; more runs fan the replications
    out over :func:`ordered_map` and stream run by run.
    """
    run_rngs = spawn_generators(as_generator(args.seed), args.runs)
    if args.runs == 1:
        for record in stream(build(args, options, run_rngs[0])):
            yield 0, record
        return
    tasks = [(build, args, options, rng) for rng in run_rngs]
    for run_index, records in enumerate(ordered_map(_execute_run, tasks, workers=args.workers)):
        for record in records:
            yield run_index, record


def _profile_sink(args: argparse.Namespace) -> Optional[dict]:
    """A dict for the run's profile under ``--profile``, or ``None``."""
    if not args.profile:
        return None
    if args.runs > 1:
        print("note: --profile only applies to single-run invocations; ignoring\n")
        return None
    return {}


def _profiled_epochs(
    simulator: ChurnSimulator, epochs: int, sink: Optional[dict]
) -> Iterator[EpochRecord]:
    """Stream one run; with a ``sink``, store its per-phase time and allocations."""
    session = simulator.session(epochs)
    started_tracing = False
    if sink is not None:
        # Per-phase allocation probe: tracemalloc peak deltas per phase.
        # The probe costs wall time, but --profile is an opt-in diagnostic,
        # not a throughput measurement (loadgen is).
        session.alloc_profile = True
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            started_tracing = True
    try:
        while not session.done:
            yield from session.run_epoch()
    finally:
        if started_tracing:
            tracemalloc.stop()
    if sink is not None:
        sink["phase_seconds"] = dict(session.phase_seconds)
        sink["phase_alloc_bytes"] = dict(session.phase_alloc_bytes)


def _csv_writer(path: Optional[str], fields: Sequence[str]):
    """A record CSV appender for ``--csv``, or a no-op context without it."""
    if not path:
        return contextlib.nullcontext()
    return CsvAppender(path, ["run", *fields], flush_interval=256)


def _cmd_simulate(args: argparse.Namespace, options: _EngineOptions) -> int:
    config, _ = options
    scenario_active = bool(args.scenario)
    if args.server_churn is not None:
        fleet = (
            f"{args.server_churn.num_joins} joins, {args.server_churn.num_leaves} leaves, "
            f"{args.server_churn.capacity_drift:g} capacity drift"
        )
    else:
        fleet = "fixed"
    summary = {
        "config": config.label,
        "algorithms": ", ".join(args.algorithms),
        "epochs": args.epochs,
        "policy": make_policy(args.policy, period=args.period or None).name,
        "delay backend": config.delay_backend,
        "churn per epoch": f"{args.joins} joins, {args.leaves} leaves, {args.moves} moves",
        "server churn per epoch": fleet,
        "migration cost / client": args.migration_cost,
        "migration budget": (
            "unlimited" if args.migration_budget is None else args.migration_budget
        ),
        "runs": args.runs,
        "seed": args.seed,
    }
    if scenario_active:
        summary["scenario"] = "; ".join(args.scenario)
        summary["degraded-pool patience"] = (
            "wait forever" if args.patience is None else f"{args.patience} epochs"
        )
    print(format_kv(summary, title="Longitudinal simulation"))
    print()

    stats = GroupedRunningStats()
    num_records = 0
    final_clients = 0
    profile_sink = _profile_sink(args)
    pairs = _engine_records(
        args, options, _simulate_run, lambda sim: _profiled_epochs(sim, args.epochs, profile_sink)
    )
    csv_fields = EpochRecord.SCENARIO_FIELDS if scenario_active else EpochRecord.FIELDS
    with _csv_writer(args.csv, csv_fields) as writer:
        for run_index, record in pairs:
            if writer is not None:
                row = record.scenario_row() if scenario_active else record.row()
                writer.append([run_index, *row])
            stats.add((record.algorithm, "after"), record.pqos_after)
            stats.add((record.algorithm, "adopted"), record.pqos_adopted)
            stats.add((record.algorithm, "migrated"), float(record.clients_migrated))
            stats.add((record.algorithm, "migration_cost"), record.migration_cost)
            if scenario_active:
                stats.add((record.algorithm, "degraded"), float(record.clients_degraded))
            if record.epoch == args.epochs - 1:
                stats.add((record.algorithm, "final"), record.pqos_adopted)
                if scenario_active:
                    stats.add(
                        (record.algorithm, "final_degraded"), float(record.clients_degraded)
                    )
                final_clients = record.num_clients_after
            num_records += 1

    headers = [
        "algorithm",
        "stale pQoS (mean)",
        "adopted pQoS (mean)",
        "adopted pQoS (final)",
        "clients migrated / epoch",
        "migration cost / epoch",
    ]
    if scenario_active:
        headers.extend(["degraded / epoch", "degraded (final)"])
    rows = []
    for name in args.algorithms:
        row = [
            name,
            stats.stat((name, "after")).mean,
            stats.stat((name, "adopted")).mean,
            stats.stat((name, "final")).mean,
            stats.stat((name, "migrated")).mean,
            stats.stat((name, "migration_cost")).mean,
        ]
        if scenario_active:
            row.append(stats.stat((name, "degraded")).mean)
            row.append(stats.stat((name, "final_degraded")).mean)
        rows.append(row)
    print(
        format_table(
            headers,
            rows,
            title=(
                f"Summary over {args.epochs} epochs × {args.runs} run(s); "
                f"{final_clients} clients at the end"
            ),
            float_format=".3f",
        )
    )
    if profile_sink:
        phases = profile_sink["phase_seconds"]
        allocs = profile_sink["phase_alloc_bytes"]
        total = sum(phases.values())
        total_alloc = sum(allocs.values())
        labels = {
            "churn_gen": "churn generation",
            "advance": "world advance",
            "solve": "solve",
            "measure": "measure",
        }
        rows = [
            [
                labels.get(key, key),
                seconds,
                seconds / args.epochs,
                (100.0 * seconds / total) if total else 0.0,
                f"{allocs.get(key, 0) / args.epochs:.0f}",
            ]
            for key, seconds in phases.items()
        ]
        rows.append(
            [
                "total",
                total,
                total / args.epochs,
                100.0 if total else 0.0,
                f"{total_alloc / args.epochs:.0f}",
            ]
        )
        print()
        print(
            format_table(
                ["phase", "seconds", "seconds / epoch", "% of total", "bytes / epoch"],
                rows,
                title=f"Phase breakdown over {args.epochs} epoch(s)",
                float_format=".4f",
            )
        )
    if args.csv:
        print(f"\n[{num_records} records streamed to {args.csv}]")
    return 0


def _cmd_loadgen(args: argparse.Namespace, options: _EngineOptions) -> int:
    config, engine = options
    simulator = ChurnSimulator(
        scenario=build_scenario(config, seed=args.seed), seed=args.seed, **engine
    )
    result = run_loadgen(
        simulator, epochs=args.epochs, warmup=args.warmup, alloc_profile=args.alloc_profile
    )
    print(format_loadgen(result))
    if args.json:
        payload = [
            {
                "label": result.label,
                "policy": result.policy,
                "epochs": result.epochs,
                "warmup": result.warmup,
                "events_per_epoch": result.events_per_epoch,
                "wall_seconds": result.wall_seconds,
                "epochs_per_sec": result.epochs_per_sec,
                "events_per_sec": result.events_per_sec,
                "p50_epoch_ms": result.p50_epoch_ms,
                "p99_epoch_ms": result.p99_epoch_ms,
                "phase_seconds": result.phase_seconds,
                "phase_alloc_bytes_per_epoch": result.phase_alloc_bytes_per_epoch,
                "arena_stats": result.arena_stats,
            }
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\n[results written to {args.json}]")
    return 0


def _cmd_federate(args: argparse.Namespace, options: _EngineOptions) -> int:
    config, _ = options
    scenario_active = bool(args.scenario)

    print(
        format_kv(
            {
                "config": config.label,
                **({"scenario": "; ".join(args.scenario)} if scenario_active else {}),
                "shards": args.shards,
                "shard weights": (
                    "descending"
                    if args.shard_weights is None
                    else ", ".join(f"{w:g}" for w in args.shard_weights)
                ),
                "arbiter": args.arbiter,
                "algorithms": ", ".join(args.algorithms),
                "epochs": args.epochs,
                "policy": make_policy(args.policy, period=args.period or None).name,
                "delay backend": config.delay_backend,
                "churn fraction per epoch": args.churn_fraction,
                "migration cost / client": args.migration_cost,
                "migration budget / shard": (
                    "unlimited" if args.migration_budget is None else args.migration_budget
                ),
                "shard workers": (
                    "serial"
                    if args.shard_workers is None
                    else ("all CPUs" if args.shard_workers == 0 else args.shard_workers)
                ),
                "runs": args.runs,
                "seed": args.seed,
            },
            title="Federated simulation",
        )
    )
    print()

    stats = GroupedRunningStats()
    num_records = 0
    profile_sink = _profile_sink(args)

    def stream(simulator: FederatedSimulator) -> Iterator[EpochRecord]:
        yield from simulator.stream(args.epochs)
        if profile_sink is not None:
            profile_sink["federation_profile"] = simulator.last_profile

    fed_fields = (
        ("shard_id", *EpochRecord.SCENARIO_FIELDS)
        if scenario_active
        else EpochRecord.FEDERATED_FIELDS
    )
    with _csv_writer(args.csv, fed_fields) as writer:
        for run_index, record in _engine_records(args, options, _federate_run, stream):
            if writer is not None:
                row = record.federated_row()
                if scenario_active:
                    row = [record.shard_id, *record.scenario_row()]
                writer.append([run_index, *row])
            key = (record.algorithm, record.shard_id)
            stats.add((*key, "after"), record.pqos_after)
            stats.add((*key, "adopted"), record.pqos_adopted)
            stats.add((*key, "migrated"), float(record.clients_migrated))
            stats.add((*key, "migration_cost"), record.migration_cost)
            if record.epoch == args.epochs - 1:
                stats.add((*key, "final"), record.pqos_adopted)
                stats.add((*key, "clients"), float(record.num_clients_after))
            num_records += 1

    rows = []
    worst = {}
    for name in args.algorithms:
        for shard in [*range(args.shards), AGGREGATE_SHARD_ID]:
            adopted = stats.stat((name, shard, "adopted")).mean
            if shard != AGGREGATE_SHARD_ID:
                worst[name] = min(worst.get(name, 1.0), adopted)
            rows.append(
                [
                    name,
                    "aggregate" if shard == AGGREGATE_SHARD_ID else f"shard {shard}",
                    stats.stat((name, shard, "clients")).mean,
                    stats.stat((name, shard, "after")).mean,
                    adopted,
                    stats.stat((name, shard, "final")).mean,
                    stats.stat((name, shard, "migrated")).mean,
                    stats.stat((name, shard, "migration_cost")).mean,
                ]
            )
    print(
        format_table(
            [
                "algorithm",
                "shard",
                "clients",
                "stale pQoS",
                "adopted pQoS",
                "final pQoS",
                "migrated / epoch",
                "migration cost / epoch",
            ],
            rows,
            title=(
                f"Summary over {args.epochs} epochs × {args.runs} run(s); worst shard "
                + ", ".join(f"{name}: {value:.3f}" for name, value in worst.items())
            ),
            float_format=".3f",
        )
    )
    if profile_sink:
        profile = profile_sink["federation_profile"]
        epochs = max(1, profile.num_epochs)
        rows = [
            [
                f"shard {shard_id}",
                profile.shard_wall_seconds[shard_id],
                profile.shard_wall_seconds[shard_id] / epochs,
                profile.shard_solve_seconds[shard_id],
                profile.shard_measure_seconds[shard_id],
                profile.shard_barrier_seconds[shard_id],
            ]
            for shard_id in range(profile.num_shards)
        ]
        total_wall = sum(profile.shard_wall_seconds)
        rows.append(
            [
                "all shards",
                total_wall,
                total_wall / epochs,
                sum(profile.shard_solve_seconds),
                sum(profile.shard_measure_seconds),
                sum(profile.shard_barrier_seconds),
            ]
        )
        print()
        print(
            format_table(
                [
                    "shard",
                    "epoch wall (s)",
                    "wall / epoch",
                    "solve (s)",
                    "measure (s)",
                    "barrier wait (s)",
                ],
                rows,
                title=(
                    f"Shard runtime over {profile.num_epochs} epoch(s), "
                    f"{profile.shard_workers} shard worker(s); "
                    f"arbiter decisions {profile.arbiter_seconds:.4f}s total"
                ),
                float_format=".4f",
            )
        )
    if args.csv:
        print(f"\n[{num_records} records streamed to {args.csv}]")
    return 0


def _experiment_options(args: argparse.Namespace) -> ExperimentConfig:
    """Validate ``experiment``'s flags (``--runs >= 1``); return its run config."""
    return ExperimentConfig(
        num_runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        delay_backend=args.delay_backend,
    )


def _cmd_experiment(args: argparse.Namespace, config: ExperimentConfig) -> int:
    spec = get_experiment(args.experiment_id)
    if args.workers is not None and not spec.supports_workers:
        print(f"note: experiment {spec.experiment_id!r} always runs serially; --workers ignored")
    if args.shard_workers is not None and not spec.supports_shard_workers:
        print(
            f"note: experiment {spec.experiment_id!r} has no federated shards; "
            "--shard-workers ignored"
        )
    extra = {}
    if args.shard_workers is not None and spec.supports_shard_workers:
        extra["shard_workers"] = args.shard_workers
    result = run_experiment(spec, config, **extra)
    print(spec.format(result))
    return 0


#: Every command but ``list``: its validation step, which raises
#: ``ValueError`` on any bad input before work starts, and its runner, which
#: takes the arguments and what the validation step returned.
_COMMANDS = {
    "solve": (_solve_options, _cmd_solve),
    "experiment": (_experiment_options, _cmd_experiment),
    "simulate": (_engine_options, _cmd_simulate),
    "loadgen": (_engine_options, _cmd_loadgen),
    "federate": (_engine_options, _cmd_federate),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        return _cmd_list()
    check, run = _COMMANDS[args.command]
    try:
        options = check(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args, options)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
