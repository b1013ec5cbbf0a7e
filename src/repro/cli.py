"""Command-line interface: run experiments, solve single scenarios, inspect configs.

Installed as the ``repro-dve`` console script (see ``pyproject.toml``) and
runnable as ``python -m repro``.  Four sub-commands:

* ``repro-dve list`` — list the available experiments and solvers.
* ``repro-dve solve`` — build one scenario and solve it with one or more
  algorithms, printing pQoS / utilisation / runtime per algorithm.
* ``repro-dve experiment <id>`` — run a paper table / figure (or extension)
  and print the formatted result, optionally dumping it to JSON/CSV.
* ``repro-dve simulate`` — longitudinal churn simulation: stream epoch
  records through a repair-policy schedule (optionally to CSV) and print a
  streaming summary.
* ``repro-dve federate`` — federated multi-shard simulation: several DVE
  shards on one topology and fleet, with cross-shard capacity arbitration
  between epochs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from typing import Iterator, List, Optional, Sequence, Tuple

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro import __version__
from repro.core import CAPInstance
from repro.core.arbitration import ARBITER_NAMES, make_arbiter
from repro.core.registry import solve as registry_solve, solver_names
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.scenarios import SCENARIO_LIBRARY, build_timeline
from repro.dynamics.federation_engine import AGGREGATE_SHARD_ID, FederatedSimulator
from repro.dynamics.measurement import MEASUREMENT_BACKENDS
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
from repro.world import build_scenario
from repro.world.federation import build_federation

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


def _add_delay_backend_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--delay-backend`` option to a sub-command parser."""
    parser.add_argument(
        "--delay-backend",
        default=None,
        choices=DELAY_BACKENDS,
        help=(
            f"delay representation (default: {DEFAULT_DELAY_BACKEND}; 'coords' and "
            "'sparse' hold O(clients) state instead of the dense clients x servers "
            "matrix, trading a bounded pQoS accuracy loss for million-client scale)"
        ),
    )


def _add_measurement_backend_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--measurement-backend`` option to a sub-command parser."""
    parser.add_argument(
        "--measurement-backend",
        default="full",
        choices=MEASUREMENT_BACKENDS,
        help=(
            "per-epoch QoS/load accounting (default: full; 'incremental' "
            "delta-updates the previous epoch's measurements from the churn "
            "batch — records are bit-identical, epochs cost O(churn) to measure)"
        ),
    )


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared incident-scenario options to a sub-command parser."""
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "incident scenario: a library name "
            f"({', '.join(sorted(SCENARIO_LIBRARY))}) or a 'kind:key=value,...' "
            "spec such as 'outage:zone=0,radius=4,start=3,duration=3'; repeat "
            "the flag to compose disturbances (composition is order-independent)"
        ),
    )
    parser.add_argument(
        "--patience",
        type=int,
        default=None,
        metavar="EPOCHS",
        help=(
            "epochs a shed client waits in the degraded pool before abandoning "
            "(default: wait forever; only meaningful with --scenario)"
        ),
    )


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
    _add_delay_backend_flag(solve)

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
    _add_delay_backend_flag(exp)

    # simulate ---------------------------------------------------------------
    sim = sub.add_parser(
        "simulate",
        help="longitudinal churn simulation: many epochs under a repair policy",
    )
    sim.add_argument(
        "--config",
        default=PAPER_DEFAULT_LABEL,
        help="DVE configuration label, e.g. 20s-80z-1000c-500cp",
    )
    sim.add_argument(
        "--algorithms",
        nargs="+",
        default=["grez-grec"],
        help="solver names to track across epochs (see 'repro-dve list')",
    )
    sim.add_argument("--epochs", type=int, default=10, help="number of churn epochs")
    sim.add_argument(
        "--policy",
        default="reexecute",
        choices=sorted(POLICY_NAMES),
        help="per-epoch repair action schedule",
    )
    sim.add_argument(
        "--period",
        type=int,
        default=0,
        help="re-execution period for --policy every_k_epochs",
    )
    sim.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sim.add_argument(
        "--runs", type=int, default=1, help="independent replications to aggregate over"
    )
    sim.add_argument(
        "--workers",
        type=_workers_type,
        default=None,
        help="worker processes when --runs > 1 (default: serial; 0 = one per CPU)",
    )
    sim.add_argument("--joins", type=int, default=200, help="clients joining per epoch")
    sim.add_argument("--leaves", type=int, default=200, help="clients leaving per epoch")
    sim.add_argument("--moves", type=int, default=200, help="clients moving zones per epoch")
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
    sim.add_argument(
        "--migration-cost",
        type=_non_negative_float,
        default=0.0,
        metavar="PER_CLIENT",
        help=(
            "state-transfer cost charged per migrated client when a zone changes "
            "hosting server (default: 0 = free, the paper's semantics)"
        ),
    )
    sim.add_argument(
        "--migration-budget",
        type=_non_negative_float,
        default=None,
        metavar="COST",
        help=(
            "per-epoch migration budget for scheduled re-executions: a re-execution "
            "billing above this is demoted to the incremental repair "
            "(needs --migration-cost > 0 to have any effect)"
        ),
    )
    sim.add_argument(
        "--correlation", type=float, default=0.0, help="physical-virtual correlation delta"
    )
    sim.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="stream every epoch record to this CSV file as it is produced",
    )
    _add_delay_backend_flag(sim)
    _add_measurement_backend_flag(sim)
    _add_scenario_flags(sim)
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
    load.add_argument(
        "--config",
        default=PAPER_DEFAULT_LABEL,
        help="DVE configuration label, e.g. 20s-80z-1000c-500cp",
    )
    load.add_argument(
        "--algorithms",
        nargs="+",
        default=["grez-grec"],
        help="solver names to track across epochs (see 'repro-dve list')",
    )
    load.add_argument("--epochs", type=int, default=300, help="measured steady-state epochs")
    load.add_argument(
        "--warmup", type=int, default=20, help="unmeasured warmup epochs before the clock starts"
    )
    load.add_argument(
        "--policy",
        default="warm_start",
        choices=sorted(POLICY_NAMES),
        help="per-epoch repair action schedule",
    )
    load.add_argument("--seed", type=int, default=0, help="master RNG seed")
    load.add_argument("--joins", type=int, default=200, help="clients joining per epoch")
    load.add_argument("--leaves", type=int, default=200, help="clients leaving per epoch")
    load.add_argument("--moves", type=int, default=200, help="clients moving zones per epoch")
    load.add_argument(
        "--correlation", type=float, default=0.0, help="physical-virtual correlation delta"
    )
    load.add_argument(
        "--no-arena",
        action="store_true",
        help="run the arena-free executable specification instead of the fast path",
    )
    load.add_argument(
        "--compare",
        action="store_true",
        help="measure both arena on and off with the same harness and print the ratio",
    )
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
    _add_delay_backend_flag(load)
    load.add_argument(
        "--measurement-backend",
        default="incremental",
        choices=MEASUREMENT_BACKENDS,
        help=(
            "per-epoch QoS/load accounting (default: incremental — the "
            "steady-state fast path this driver exists to measure)"
        ),
    )

    # federate ---------------------------------------------------------------
    fedp = sub.add_parser(
        "federate",
        help="federated multi-shard simulation with cross-shard capacity arbitration",
    )
    fedp.add_argument(
        "--config",
        default=PAPER_DEFAULT_LABEL,
        help="base DVE configuration label; its clients are split across the shards",
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
    fedp.add_argument(
        "--algorithms",
        nargs="+",
        default=["grez-grec"],
        help="solver names tracked in every shard (first drives arbitration signals)",
    )
    fedp.add_argument("--epochs", type=int, default=10, help="number of churn epochs")
    fedp.add_argument(
        "--policy",
        default="reexecute",
        choices=sorted(POLICY_NAMES),
        help="per-epoch repair action schedule (applied in every shard)",
    )
    fedp.add_argument(
        "--period", type=int, default=0, help="re-execution period for every_k_epochs"
    )
    fedp.add_argument("--seed", type=int, default=0, help="master RNG seed")
    fedp.add_argument(
        "--runs", type=int, default=1, help="independent replications to aggregate over"
    )
    fedp.add_argument(
        "--workers",
        type=_workers_type,
        default=None,
        help="worker processes when --runs > 1 (default: serial; 0 = one per CPU)",
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
    fedp.add_argument(
        "--migration-cost",
        type=_non_negative_float,
        default=1.0,
        metavar="PER_CLIENT",
        help="state-transfer cost per migrated client (default: 1)",
    )
    fedp.add_argument(
        "--migration-budget",
        type=_non_negative_float,
        default=None,
        metavar="COST",
        help="per-shard per-epoch migration budget (default: unlimited)",
    )
    fedp.add_argument(
        "--correlation", type=float, default=0.0, help="physical-virtual correlation delta"
    )
    fedp.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="stream every per-shard and aggregate record to this CSV file",
    )
    _add_delay_backend_flag(fedp)
    _add_measurement_backend_flag(fedp)
    _add_scenario_flags(fedp)
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


def _cmd_solve(args: argparse.Namespace) -> int:
    config = apply_delay_backend(
        config_from_label(args.config, correlation=args.correlation), args.delay_backend
    )
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


def _resolve_scenario(args: argparse.Namespace):
    """Build ``(timeline, admission_policy)`` from ``--scenario`` / ``--patience``.

    Returns ``(None, None)`` when no scenario was requested, so classic
    invocations construct simulators exactly as before.
    """
    if not getattr(args, "scenario", None):
        return None, None
    timeline = build_timeline(args.scenario)
    return timeline, AdmissionPolicy(patience_epochs=args.patience)


def _build_simulator(args: argparse.Namespace, config, rng) -> ChurnSimulator:
    """Materialise one simulate replication from the CLI arguments."""
    timeline, admission = _resolve_scenario(args)
    scenario_rng, sim_rng = spawn_generators(rng, 2)
    return ChurnSimulator(
        scenario=build_scenario(config, seed=scenario_rng),
        algorithms=list(args.algorithms),
        churn_spec=ChurnSpec(num_joins=args.joins, num_leaves=args.leaves, num_moves=args.moves),
        server_churn_spec=args.server_churn,
        migration_cost=MigrationCostModel(cost_per_client=args.migration_cost),
        seed=sim_rng,
        policy=args.policy,
        policy_period=args.period,
        policy_migration_budget=args.migration_budget,
        measurement_backend=args.measurement_backend,
        scenario_timeline=timeline,
        admission_policy=admission,
    )


def _execute_simulate_run(task) -> List[EpochRecord]:
    """One replication of the simulate command (worker-side; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    args, config, rng = task
    return _build_simulator(args, config, rng).run(args.epochs)


def _simulate_records(
    args: argparse.Namespace, config, profile_sink: Optional[dict] = None
) -> Iterator[Tuple[int, EpochRecord]]:
    """Yield ``(run_index, record)`` pairs, streaming whenever possible.

    A single serial run streams straight from the engine's generator (O(1)
    record memory even for thousands of epochs); multi-run invocations fan
    the replications out over :func:`ordered_map` and stream run by run.
    When ``profile_sink`` is given and the run is serial, the accumulated
    per-phase wall times land in it under ``"phase_seconds"``.
    """
    rng = as_generator(args.seed)
    run_rngs = spawn_generators(rng, args.runs)
    if args.runs == 1:
        session = _build_simulator(args, config, run_rngs[0]).session(args.epochs)
        started_tracing = False
        if profile_sink is not None:
            # Per-phase allocation probe: tracemalloc peak deltas per phase.
            # The probe costs wall time, but --profile is an opt-in
            # diagnostic, not a throughput measurement (loadgen is).
            session.alloc_profile = True
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started_tracing = True
        try:
            while not session.done:
                for record in session.run_epoch():
                    yield 0, record
        finally:
            if started_tracing:
                tracemalloc.stop()
        if profile_sink is not None:
            profile_sink["phase_seconds"] = dict(session.phase_seconds)
            profile_sink["phase_alloc_bytes"] = dict(session.phase_alloc_bytes)
        return
    tasks = [(args, config, run_rngs[i]) for i in range(args.runs)]
    for run_index, records in enumerate(
        ordered_map(_execute_simulate_run, tasks, workers=args.workers)
    ):
        for record in records:
            yield run_index, record


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.epochs < 1:
        print("error: --epochs must be >= 1", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2
    try:
        schedule = make_policy(args.policy, period=args.period or None)
        _resolve_scenario(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario_active = bool(args.scenario)
    if scenario_active and args.server_churn is not None:
        print(
            "error: --scenario drives the fleet itself and cannot be combined "
            "with --server-churn",
            file=sys.stderr,
        )
        return 2
    config = apply_delay_backend(
        config_from_label(args.config, correlation=args.correlation), args.delay_backend
    )

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
        "policy": schedule.name,
        "delay backend": config.delay_backend,
        "measurement backend": args.measurement_backend,
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

    def consume(pairs: Iterator[Tuple[int, EpochRecord]]) -> None:
        nonlocal num_records, final_clients
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

    profile_sink: Optional[dict] = None
    if args.profile:
        if args.runs == 1:
            profile_sink = {}
        else:
            print("note: --profile only applies to single-run invocations; ignoring\n")
    pairs = _simulate_records(args, config, profile_sink=profile_sink)
    writer = None
    csv_fields = EpochRecord.SCENARIO_FIELDS if scenario_active else EpochRecord.FIELDS
    if args.csv:
        with CsvAppender(args.csv, ["run", *csv_fields], flush_interval=256) as writer:
            consume(pairs)
    else:
        consume(pairs)

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
    if profile_sink is not None and "phase_seconds" in profile_sink:
        phases = profile_sink["phase_seconds"]
        allocs = profile_sink.get("phase_alloc_bytes", {})
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


def _cmd_loadgen(args: argparse.Namespace) -> int:
    if args.epochs < 1:
        print("error: --epochs must be >= 1", file=sys.stderr)
        return 2
    if args.warmup < 0:
        print("error: --warmup must be >= 0", file=sys.stderr)
        return 2
    if args.no_arena and args.compare:
        print("error: --no-arena and --compare are mutually exclusive", file=sys.stderr)
        return 2
    churn = ChurnSpec(num_joins=args.joins, num_leaves=args.leaves, num_moves=args.moves)
    arenas = [True, False] if args.compare else [not args.no_arena]
    results = []
    for arena in arenas:
        results.append(
            run_loadgen(
                label=args.config,
                algorithms=list(args.algorithms),
                epochs=args.epochs,
                warmup=args.warmup,
                churn=churn,
                policy=args.policy,
                measurement_backend=args.measurement_backend,
                correlation=args.correlation,
                seed=args.seed,
                arena=arena,
                alloc_profile=args.alloc_profile,
                delay_backend=args.delay_backend,
            )
        )
    print(format_loadgen(results))
    if args.compare:
        on, off = results
        print(
            f"\narena on / off speedup: x{on.epochs_per_sec / off.epochs_per_sec:.2f} "
            f"({on.epochs_per_sec:.1f} vs {off.epochs_per_sec:.1f} epochs/s)"
        )
        if on.alloc_bytes_per_epoch is not None and on.alloc_bytes_per_epoch > 0:
            print(
                "steady-state alloc reduction: "
                f"x{off.alloc_bytes_per_epoch / on.alloc_bytes_per_epoch:.1f} "
                f"({off.alloc_bytes_per_epoch:.0f} -> {on.alloc_bytes_per_epoch:.0f} "
                "bytes/epoch)"
            )
    if args.json:
        payload = [
            {
                "label": r.label,
                "policy": r.policy,
                "measurement_backend": r.measurement_backend,
                "arena": r.arena,
                "epochs": r.epochs,
                "warmup": r.warmup,
                "events_per_epoch": r.events_per_epoch,
                "wall_seconds": r.wall_seconds,
                "epochs_per_sec": r.epochs_per_sec,
                "events_per_sec": r.events_per_sec,
                "p50_epoch_ms": r.p50_epoch_ms,
                "p99_epoch_ms": r.p99_epoch_ms,
                "phase_seconds": r.phase_seconds,
                "phase_alloc_bytes_per_epoch": r.phase_alloc_bytes_per_epoch,
                "arena_stats": r.arena_stats,
            }
            for r in results
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\n[results written to {args.json}]")
    return 0


def _build_federated_simulator(args: argparse.Namespace, config, rng) -> FederatedSimulator:
    """Materialise one federation replication from the CLI arguments."""
    timeline, admission = _resolve_scenario(args)
    fed_rng, sim_rng = spawn_generators(rng, 2)
    weights = (
        list(args.shard_weights)
        if args.shard_weights is not None
        else [float(args.shards - i) for i in range(args.shards)]
    )
    world = build_federation(
        config, num_shards=args.shards, seed=fed_rng, client_weights=weights
    )
    churn_specs = [
        ChurnSpec(
            num_joins=round(args.churn_fraction * shard.num_clients),
            num_leaves=round(args.churn_fraction * shard.num_clients),
            num_moves=round(args.churn_fraction * shard.num_clients),
        )
        for shard in world.shards
    ]
    return FederatedSimulator(
        world=world,
        algorithms=list(args.algorithms),
        arbiter=make_arbiter(
            args.arbiter,
            min_slice_fraction=args.min_slice,
        ),
        churn_spec=churn_specs,
        migration_cost=MigrationCostModel(cost_per_client=args.migration_cost),
        seed=sim_rng,
        policy=args.policy,
        policy_period=args.period,
        policy_migration_budget=args.migration_budget,
        measurement_backend=args.measurement_backend,
        scenario_timeline=timeline,
        admission_policy=admission,
        shard_workers=args.shard_workers,
    )


def _execute_federate_run(task) -> List[EpochRecord]:
    """One replication of the federate command (worker-side; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    args, config, rng = task
    return _build_federated_simulator(args, config, rng).run(args.epochs)


def _federate_records(
    args: argparse.Namespace, config, profile_sink: Optional[dict] = None
) -> Iterator[Tuple[int, EpochRecord]]:
    """Yield ``(run_index, record)`` pairs, streaming whenever possible.

    When ``profile_sink`` is given and the run is serial, the simulator's
    :class:`~repro.dynamics.federation_engine.FederationProfile` is stored
    under ``"federation_profile"`` after the stream is drained.
    """
    rng = as_generator(args.seed)
    run_rngs = spawn_generators(rng, args.runs)
    if args.runs == 1:
        simulator = _build_federated_simulator(args, config, run_rngs[0])
        for record in simulator.stream(args.epochs):
            yield 0, record
        if profile_sink is not None and simulator.last_profile is not None:
            profile_sink["federation_profile"] = simulator.last_profile
        return
    tasks = [(args, config, run_rngs[i]) for i in range(args.runs)]
    for run_index, records in enumerate(
        ordered_map(_execute_federate_run, tasks, workers=args.workers)
    ):
        for record in records:
            yield run_index, record


def _cmd_federate(args: argparse.Namespace) -> int:
    if args.epochs < 1:
        print("error: --epochs must be >= 1", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.shard_weights is not None and len(args.shard_weights) != args.shards:
        print(
            f"error: --shard-weights needs exactly {args.shards} values",
            file=sys.stderr,
        )
        return 2
    try:
        schedule = make_policy(args.policy, period=args.period or None)
        _resolve_scenario(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario_active = bool(args.scenario)
    config = apply_delay_backend(
        config_from_label(args.config, correlation=args.correlation), args.delay_backend
    )

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
                "policy": schedule.name,
                "delay backend": config.delay_backend,
                "measurement backend": args.measurement_backend,
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

    def consume(pairs: Iterator[Tuple[int, EpochRecord]]) -> None:
        nonlocal num_records
        for run_index, record in pairs:
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

    profile_sink: Optional[dict] = None
    if args.profile:
        if args.runs == 1:
            profile_sink = {}
        else:
            print("note: --profile only applies to single-run invocations; ignoring\n")
    pairs = _federate_records(args, config, profile_sink=profile_sink)
    writer = None
    fed_fields = (
        ("shard_id", *EpochRecord.SCENARIO_FIELDS)
        if scenario_active
        else EpochRecord.FEDERATED_FIELDS
    )
    if args.csv:
        with CsvAppender(args.csv, ["run", *fed_fields], flush_interval=256) as writer:
            consume(pairs)
    else:
        consume(pairs)

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
    if profile_sink is not None and "federation_profile" in profile_sink:
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


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment_id)
    if args.workers is not None and not spec.supports_workers:
        print(f"note: experiment {spec.experiment_id!r} always runs serially; --workers ignored")
    if args.shard_workers is not None and not spec.supports_shard_workers:
        print(
            f"note: experiment {spec.experiment_id!r} has no federated shards; "
            "--shard-workers ignored"
        )
    config = ExperimentConfig(
        num_runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        delay_backend=args.delay_backend,
    )
    extra = {}
    if args.shard_workers is not None and spec.supports_shard_workers:
        extra["shard_workers"] = args.shard_workers
    result = run_experiment(spec, config, **extra)
    print(spec.format(result))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "federate":
        return _cmd_federate(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
