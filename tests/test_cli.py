"""Tests for the repro-dve command-line interface."""

from __future__ import annotations

import json
import math
import re
import time

import pytest

from repro.cli import build_parser, main
from tests.golden.cli_corpus import (
    COMMANDS,
    GOLDEN_PATH,
    OUTPUT_CASES,
    OUTPUT_PATH,
    option_table,
    render,
)

GOLDEN_OPTIONS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
GOLDEN_OUTPUT = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-dve" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestListCommand:
    def test_lists_experiments_and_solvers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "grez-grec" in out
        assert "optimal" in out


class TestSolveCommand:
    def test_solve_small_config(self, capsys):
        code = main(
            [
                "solve",
                "--config",
                "4s-8z-80c-60cp",
                "--algorithms",
                "grez-grec",
                "ranz-virc",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4s-8z-80c-60cp" in out
        assert "grez-grec" in out and "ranz-virc" in out

    def test_solve_with_detail_and_delay_bound(self, capsys):
        code = main(
            [
                "solve",
                "--config",
                "4s-8z-80c-60cp",
                "--algorithms",
                "grez-virc",
                "--delay-bound-ms",
                "200",
                "--detail",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "forwarded_fraction" in out

    def test_solve_invalid_config_label(self, capsys):
        assert main(["solve", "--config", "not-a-label"]) == 2
        assert "cannot parse DVE configuration label" in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_figure5_quickly(self, capsys, monkeypatch):
        # Shrink the experiment by patching the registry entry with a smaller spec.
        import dataclasses

        from repro.experiments import registry as reg

        spec = dataclasses.replace(
            reg.get_experiment("figure5"),
            labels=("5s-15z-200c-100cp",),
            sweep=(0.5,),
            algorithms=("grez-virc",),
        )
        monkeypatch.setitem(reg.EXPERIMENTS, "figure5", spec)
        assert main(["experiment", "figure5", "--runs", "1", "--seed", "0"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestSimulateCommand:
    SMALL = ["--config", "4s-8z-80c-60cp", "--joins", "8", "--leaves", "8", "--moves", "8"]

    def test_simulate_streams_summary(self, capsys):
        code = main(
            [
                "simulate",
                *self.SMALL,
                "--algorithms",
                "grez-grec",
                "--epochs",
                "3",
                "--policy",
                "warm_start",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warm_start" in out
        assert "grez-grec" in out
        assert "Summary over 3 epochs" in out

    def test_simulate_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        code = main(
            [
                "simulate",
                *self.SMALL,
                "--algorithms",
                "grez-grec",
                "ranz-virc",
                "--epochs",
                "2",
                "--csv",
                str(path),
            ]
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("run,epoch,algorithm,policy")
        assert len(lines) == 1 + 2 * 2  # header + epochs × algorithms
        assert "streamed to" in capsys.readouterr().out

    def test_simulate_multi_run_aggregates(self, capsys):
        code = main(
            [
                "simulate",
                *self.SMALL,
                "--algorithms",
                "grez-virc",
                "--epochs",
                "2",
                "--runs",
                "2",
                "--policy",
                "every_k_epochs",
                "--period",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "every_2_epochs" in out
        assert "2 run(s)" in out

    def test_simulate_elastic_flags(self, capsys, tmp_path):
        path = tmp_path / "elastic.csv"
        code = main(
            [
                "simulate",
                *self.SMALL,
                "--algorithms",
                "grez-grec",
                "--epochs",
                "2",
                "--server-churn",
                "1:1:0.05",
                "--migration-cost",
                "1.5",
                "--migration-budget",
                "50",
                "--csv",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 joins, 1 leaves, 0.05 capacity drift" in out
        assert "migration cost / client" in out
        header = path.read_text().strip().splitlines()[0]
        assert "zones_migrated" in header
        assert "clients_migrated" in header
        assert "migration_cost" in header
        assert "num_servers_after" in header

    def test_simulate_rejects_bad_server_churn(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--server-churn", "nonsense"])
        with pytest.raises(SystemExit):
            main(["simulate", "--server-churn", "1:2:3:4"])
        with pytest.raises(SystemExit):
            main(["simulate", "--migration-cost", "-1"])
        for flag, value in (
            ("--migration-cost", "nan"),
            ("--migration-budget", "nan"),
            ("--server-churn", "1:1:nan"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", *self.SMALL, flag, value])
            assert exc.value.code == 2

    def test_simulate_rejects_bad_epochs(self, capsys):
        assert main(["simulate", *self.SMALL, "--epochs", "0"]) == 2
        assert "--epochs" in capsys.readouterr().err

    def test_simulate_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "nonsense"])

    def test_simulate_world_advance_matches_rebuild_oracle(self, tmp_path, advance_oracle_spy):
        args = [
            "simulate",
            *self.SMALL,
            "--algorithms",
            "grez-grec",
            "--epochs",
            "2",
            "--seed",
            "5",
            "--server-churn",
            "1:1:0.05",
            "--csv",
            str(tmp_path / "records.csv"),
        ]
        assert main(args) == 0
        assert advance_oracle_spy == [True, True]

    def test_simulate_every_k_without_period_is_clean_error(self, capsys):
        assert main(["simulate", *self.SMALL, "--policy", "every_k_epochs"]) == 2
        assert "period" in capsys.readouterr().err

    def test_simulate_multi_run_matches_single_and_serial(self, tmp_path):
        def run_to_csv(runs, workers=None):
            path = tmp_path / f"runs{runs}-w{workers or 0}.csv"
            args = [
                "simulate",
                *self.SMALL,
                "--algorithms",
                "grez-grec",
                "--epochs",
                "2",
                "--seed",
                "3",
                "--runs",
                str(runs),
                "--csv",
                str(path),
            ]
            if workers:
                args += ["--workers", str(workers)]
            assert main(args) == 0
            return path.read_text().splitlines()

        single = run_to_csv(1)
        multi = run_to_csv(2)
        assert [line for line in multi if line.startswith("0,")] == single[1:]
        assert len(multi) == 1 + 2 * 2
        assert run_to_csv(2, workers=2) == multi

    @pytest.mark.parametrize(
        ("command", "flag"),
        [
            *((command, "--solver-backend")
              for command in ("solve", "experiment", "simulate", "loadgen", "federate")),
            *((command, "--backend") for command in ("simulate", "loadgen", "federate")),
            *((command, "--measurement-backend")
              for command in ("simulate", "loadgen", "federate")),
            ("loadgen", "--no-arena"),
            ("loadgen", "--compare"),
        ],
    )
    def test_no_backend_switch_flag(self, command, flag, capsys):
        # The max-regret engine, the world advance, the measurement and the
        # epoch arena each have a single implementation: no command offers a
        # switch between paths.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert not re.search(rf"(?<![\w-]){flag}\b", capsys.readouterr().out)
        with pytest.raises(SystemExit):
            main([command, flag, "delta"])


class TestSimulateCsvHeaderRegression:
    """Satellite: the unsharded CSV stream is frozen — shard_id must not leak in."""

    #: The exact pre-federation column set, in order.  Changing this tuple is
    #: a breaking change for every consumer of `simulate --csv`.
    EXPECTED_HEADER = (
        "run,epoch,algorithm,policy,num_clients_before,num_clients_after,"
        "num_servers_after,pqos_before,pqos_after,pqos_reexecuted,pqos_incremental,"
        "pqos_adopted,utilization_before,utilization_reexecuted,utilization_adopted,"
        "zones_migrated,clients_migrated,migration_cost"
    )

    def test_epoch_record_fields_frozen(self):
        from repro.dynamics.engine import EpochRecord

        assert ",".join(["run", *EpochRecord.FIELDS]) == self.EXPECTED_HEADER
        assert "shard_id" not in EpochRecord.FIELDS
        assert EpochRecord.FEDERATED_FIELDS[0] == "shard_id"

    def test_simulate_csv_header_byte_identical(self, tmp_path):
        path = tmp_path / "frozen.csv"
        args = [
            "simulate",
            "--config",
            "4s-8z-80c-60cp",
            "--joins",
            "8",
            "--leaves",
            "8",
            "--moves",
            "8",
            "--algorithms",
            "grez-grec",
            "--epochs",
            "1",
            "--seed",
            "0",
            "--csv",
            str(path),
        ]
        assert main(args) == 0
        header = path.read_text().splitlines()[0]
        assert header == self.EXPECTED_HEADER


class TestFederateCommand:
    SMALL = [
        "--config",
        "4s-8z-80c-60cp",
        "--shards",
        "2",
        "--epochs",
        "2",
        "--seed",
        "1",
    ]

    def test_federate_streams_summary(self, capsys):
        assert main(["federate", *self.SMALL, "--arbiter", "proportional"]) == 0
        out = capsys.readouterr().out
        assert "Federated simulation" in out
        assert "proportional" in out
        assert "shard 0" in out and "shard 1" in out and "aggregate" in out
        assert "worst shard" in out

    def test_federate_writes_federated_csv(self, capsys, tmp_path):
        from repro.dynamics.engine import EpochRecord

        path = tmp_path / "fed.csv"
        assert main(["federate", *self.SMALL, "--csv", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(["run", *EpochRecord.FEDERATED_FIELDS])
        # 2 epochs x (2 shards + 1 aggregate) x 1 algorithm.
        assert len(lines) == 1 + 2 * 3
        shard_ids = [line.split(",")[1] for line in lines[1:]]
        assert set(shard_ids) == {"0", "1", "-1"}

    def test_federate_arbiters_and_weights(self, capsys, tmp_path):
        for arbiter in ("static", "regret"):
            assert (
                main(
                    [
                        "federate",
                        *self.SMALL,
                        "--arbiter",
                        arbiter,
                        "--shard-weights",
                        "3,1",
                        "--migration-budget",
                        "20",
                    ]
                )
                == 0
            )

    def test_federate_rejects_bad_arguments(self, capsys):
        assert main(["federate", *self.SMALL, "--epochs", "0"]) == 2
        assert main(["federate", "--shards", "0"]) == 2
        assert main(["federate", *self.SMALL, "--shard-weights", "1,2,3"]) == 2
        with pytest.raises(SystemExit):
            main(["federate", *self.SMALL, "--arbiter", "nonsense"])
        with pytest.raises(SystemExit):
            main(["federate", *self.SMALL, "--shard-weights", "1,-2"])
        for flags in (["--churn-fraction", "nan"], ["--shards", "2", "--shard-weights", "nan,1"]):
            with pytest.raises(SystemExit) as exc:
                main(["federate", *self.SMALL, *flags])
            assert exc.value.code == 2

    def test_federate_multi_run_matches_serial(self, tmp_path):
        def run_to_csv(workers):
            path = tmp_path / f"fed-w{workers or 0}.csv"
            args = [
                "federate",
                *self.SMALL,
                "--runs",
                "2",
                "--csv",
                str(path),
            ]
            if workers:
                args += ["--workers", str(workers)]
            assert main(args) == 0
            return path.read_text()

        assert run_to_csv(None) == run_to_csv(2)

    @pytest.mark.parametrize(
        "world",
        [
            SMALL,
            ["--config", "4s-8z-80c-60cp", "--shards", "3", "--epochs", "4", "--seed", "7",
             "--arbiter", "proportional"],
        ],
        ids=["2-shards", "3-shards-proportional"],
    )
    def test_federate_stream_reproducible_csv(self, tmp_path, world):
        def run_to_csv(name):
            path = tmp_path / f"{name}.csv"
            assert main(["federate", *world, "--csv", str(path)]) == 0
            return path.read_text()

        first = run_to_csv("first")
        assert first.count("\n") > 1
        assert run_to_csv("second") == first

    def test_experiment_federation_forwards_runs_seed_and_workers(self, capsys, monkeypatch):
        import dataclasses

        from repro.experiments import registry as reg

        federation = reg.get_experiment("federation")
        received = {}

        def execute(spec, worlds, config):
            received.update(num_runs=config.num_runs, seed=config.seed, workers=config.workers)
            return federation.execute(spec, worlds, config)

        tiny = dataclasses.replace(
            federation,
            execute=execute,
            labels=("4s-8z-80c-60cp",),
            num_shards=2,
            num_epochs=2,
            sweep=("proportional",),
        )
        monkeypatch.setitem(reg.EXPERIMENTS, "federation", tiny)
        argv = ["experiment", "federation", "--runs", "2", "--seed", "4", "--workers", "2"]
        assert main(argv) == 0
        assert received == {"num_runs": 2, "seed": 4, "workers": 2}
        assert "proportional" in capsys.readouterr().out

    def test_federate_rejects_bad_min_slice(self):
        for value in ("0", "1.5", "-0.1"):
            with pytest.raises(SystemExit):
                main(["federate", *self.SMALL, "--min-slice", value])

    def test_federate_profile_prints_shard_runtime(self, capsys):
        assert main(["federate", *self.SMALL, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Shard runtime" in out
        assert "arbiter decisions" in out
        assert "all shards" in out

    @pytest.mark.parametrize("shards", [2, 3])
    def test_federate_profile_has_one_row_per_shard(self, capsys, shards):
        argv = ["federate", "--config", "4s-8z-80c-60cp", "--shards", str(shards),
                "--epochs", "2", "--seed", "1", "--profile"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        table = out[out.index("Shard runtime over 2 epoch(s)"):].splitlines()
        rows = [line.split("  ")[0].strip() for line in table[3:] if line.strip()]
        assert rows == [f"shard {i}" for i in range(shards)] + ["all shards"]

    def test_federate_profile_multi_run_is_ignored_with_note(self, capsys):
        assert main(["federate", *self.SMALL, "--runs", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "--profile" in out
        assert "Shard runtime" not in out

    @pytest.mark.parametrize(
        "argv",
        [["federate", *SMALL], ["experiment", "federation", "--runs", "1"]],
        ids=["federate", "experiment"],
    )
    def test_shard_workers_flag_is_rejected(self, argv):
        # Shards always step serially: no option selects thread stepping.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--shard-workers", "2"])
        assert exc.value.code == 2


#: Flags removed from the engine commands, each with an argument it once took,
#: and the removed ``coords`` choice of ``--delay-backend`` on every command.
REMOVED_FLAGS = [
    ["simulate", "--measurement-backend", "full"],
    ["loadgen", "--measurement-backend", "full"],
    ["loadgen", "--no-arena"],
    ["loadgen", "--compare"],
    ["federate", "--measurement-backend", "full"],
    *([command, "--delay-backend", "coords"] for command in ("solve", "simulate", "loadgen")),
    ["federate", "--delay-backend", "coords"],
    ["experiment", "table1", "--delay-backend", "coords"],
]


class TestEngineCommandOptions:
    """The live command options match the golden option tables exactly."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_match_golden(self, command):
        assert list(option_table(command).items()) == list(GOLDEN_OPTIONS[command].items())

    @pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
    def test_removed_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err
        assert captured.out == ""


class TestNumericBoundary:
    """Every numeric option of every command in ``tests/golden/cli_options.json``,
    fed ``nan``, ``inf``, ``-inf``, ``-1``, ``0`` and a non-number on the
    smallest run of its command, exits 0 or 2 and raises nothing (an escaped
    exception is the traceback a shell would print).  The cases are a fixed
    enumeration, so every run tries the same ones.

    Huge churn counts (``--joins``, ``--leaves``, ``--moves`` at 1e14 on
    ``simulate`` and ``loadgen``) exit 0 or 2 within the same deadline:
    leaves and moves are capped by the population, and joins that would grow
    the world past the clients it can hold are a usage error, refused before
    any array is sized by the count.
    """

    VALUES = ("nan", "inf", "-inf", "-1", "0", "seven")
    #: Wall-clock deadline of one CLI run, in seconds.
    DEADLINE_SECONDS = 2.0
    TINY = "4s-8z-80c-60cp"
    CHURN = ["--joins", "8", "--leaves", "8", "--moves", "8"]
    #: The smallest run of each command; the fuzzed option comes last and wins.
    BASE = {
        "simulate": ["simulate", "--config", TINY, "--epochs", "1", *CHURN],
        "loadgen": ["loadgen", "--config", TINY, "--epochs", "1", "--warmup", "0", *CHURN],
        "federate": ["federate", "--config", TINY, "--epochs", "1"],
        "solve": ["solve", "--config", TINY],
        "experiment": ["experiment", "dynamics", "--runs", "1"],
    }

    def test_bad_numbers_exit_0_or_2(self, capsys):
        cases = [
            [*self.BASE[command], flag, value]
            for command, options in GOLDEN_OPTIONS.items()
            for flag, option in options.items()
            if option["type"] is not None
            for value in self.VALUES
        ]
        assert len(cases) >= 30 * len(self.VALUES)
        failures = []
        for argv in cases:
            start = time.perf_counter()
            try:
                outcome = main(argv)
            except SystemExit as exc:
                outcome = exc.code
            except Exception as exc:  # noqa: BLE001 - an escaped exception is the defect
                outcome = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            if outcome not in (0, 2) or "Traceback" in err:
                failures.append((" ".join(argv), outcome))
            elif elapsed > self.DEADLINE_SECONDS:
                failures.append((" ".join(argv), f"took {elapsed:.2f} s"))
        assert not failures, failures

    HUGE = "100000000000000"

    def test_huge_churn_counts_exit_0_or_2(self, capsys):
        failures = []
        for command in ("simulate", "loadgen"):
            for flag in ("--joins", "--leaves", "--moves"):
                argv = [*self.BASE[command], flag, self.HUGE]
                start = time.perf_counter()
                outcome = main(argv)
                elapsed = time.perf_counter() - start
                err = capsys.readouterr().err
                expected = 2 if flag == "--joins" else 0
                errors = [line for line in err.splitlines() if "error:" in line]
                if outcome != expected or "Traceback" in err or len(errors) != outcome // 2:
                    failures.append((" ".join(argv), outcome, err))
                elif elapsed > self.DEADLINE_SECONDS:
                    failures.append((" ".join(argv), f"took {elapsed:.2f} s"))
        assert not failures, failures


class TestUsageErrors:
    """Out-of-range values that argparse rejects: exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            *([command, "--seed", "-1"] for command in ("simulate", "federate", "loadgen")),
            ["solve", "--seed", "-1"],
            ["experiment", "figure4", "--seed", "-1"],
            ["federate", "--churn-fraction", "inf"],
        ],
        ids=" ".join,
    )
    def test_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err
        assert captured.out == ""

    def test_migration_budget_inf_means_no_budget(self):
        args = build_parser().parse_args(["federate", "--migration-budget", "inf"])
        assert args.migration_budget == math.inf

    #: The argument prefix of every command that takes ``--seed``.
    SEED_COMMANDS = {
        "simulate": ["simulate"],
        "federate": ["federate"],
        "loadgen": ["loadgen"],
        "solve": ["solve"],
        "experiment": ["experiment", "figure4"],
    }

    @pytest.mark.parametrize("value", ["1.5", "seven"])
    @pytest.mark.parametrize("command", list(SEED_COMMANDS))
    def test_seed_rejects_a_non_integer(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.SEED_COMMANDS[command], "--seed", value])
        assert exc.value.code == 2
        assert f"expected an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", str(2**32)])
    @pytest.mark.parametrize("command", list(SEED_COMMANDS))
    def test_seed_accepts_a_non_negative_integer(self, command, value):
        args = build_parser().parse_args([*self.SEED_COMMANDS[command], "--seed", value])
        assert args.seed == int(value)

    def test_seed_error_names_the_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--seed", "-3"])
        err = capsys.readouterr().err
        assert "must be >= 0, got -3" in err
        assert "one per CPU" not in err

    def test_workers_error_keeps_its_hint(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workers", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0 (0 = one per CPU), got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-inf", "1e400", "nan", "-0.5", "half"])
    def test_churn_fraction_rejects(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["federate", "--churn-fraction", value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["0", "0.25", "1", "3"])
    def test_churn_fraction_accepts_a_finite_non_negative_number(self, value):
        args = build_parser().parse_args(["federate", "--churn-fraction", value])
        assert args.churn_fraction == float(value)


class TestRenderedOutput:
    """The engine commands print and stream exactly the golden output."""

    def test_corpus_covers_the_cases(self):
        assert sorted(GOLDEN_OUTPUT) == sorted(OUTPUT_CASES)

    @pytest.mark.parametrize("case", list(OUTPUT_CASES))
    def test_output_matches_golden(self, case, tmp_path):
        assert render(case, tmp_path) == GOLDEN_OUTPUT[case]


#: A small run of every command that takes ``--delay-backend``.
DELAY_BACKEND_RUNS = {
    "solve": ["solve", "--config", "4s-8z-80c-60cp", "--algorithms", "grez-grec", "--seed", "1"],
    "simulate": ["simulate", *TestSimulateCommand.SMALL, "--epochs", "2", "--seed", "1"],
    "federate": ["federate", *TestFederateCommand.SMALL],
    "loadgen": [
        *["loadgen", "--config", "4s-8z-80c-60cp", "--joins", "4", "--leaves", "4"],
        *["--moves", "4", "--epochs", "2", "--warmup", "1"],
    ],
    "experiment": ["experiment", "table1", "--runs", "1"],
}


def _deterministic_lines(out: str):
    """``out`` without the backend's name and the solve table's runtime column."""
    out = re.sub(r"(delay backend\s*:) \w+", r"\1", out)
    return [re.sub(r"^(grez-grec(\s+\S+){2}\s+)\S+", r"\1", line) for line in out.splitlines()]


class TestDelayBackendFlag:
    """``--delay-backend sparse`` end to end on a 4-server world."""

    @pytest.mark.parametrize("command", ["solve", "simulate", "federate"])
    def test_sparse_matches_dense_when_candidates_cover_fleet(self, command, capsys):
        # The default top-8 candidate sets hold all 4 servers, so the sparse
        # run sees the exact delays and must print the dense run's results.
        outputs = {}
        for backend in ("dense", "sparse"):
            assert main([*DELAY_BACKEND_RUNS[command], "--delay-backend", backend]) == 0
            outputs[backend] = capsys.readouterr().out
        assert _deterministic_lines(outputs["dense"]) == _deterministic_lines(outputs["sparse"])

    @pytest.mark.parametrize("command", ["loadgen", "experiment"])
    def test_sparse_runs(self, command, capsys):
        assert main([*DELAY_BACKEND_RUNS[command], "--delay-backend", "sparse"]) == 0
        out = capsys.readouterr().out
        heading = "Epoch throughput" if command == "loadgen" else "Table 1 (measured)"
        assert heading in out


class TestInputErrors:
    """Bad input values exit 2 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--joins", "-1"],
            ["loadgen", "--joins", "-1"],
            *([command, "--algorithms", "nope"]
              for command in ("solve", "simulate", "loadgen", "federate")),
            ["solve", "--config", "bogus"],
            ["experiment", "figure4", "--runs", "0"],
            ["simulate", "--config", "bogus"],
            ["loadgen", "--config", "bogus"],
            ["federate", "--config", "bogus"],
            ["loadgen", "--policy", "every_k_epochs"],
            ["simulate", "--policy", "every_k_epochs"],
            *(["solve", "--config", "5s-15z-200c-100cp", "--delay-bound-ms", value]
              for value in ("0", "-5", "nan")),
            *([command, "--config", "5s-15z-200c-100cp", "--scenario", scenario]
              for command in ("simulate", "federate")
              for scenario in ("outage:zone=99", "linkdegrade:zone=15", "flashcrowd:zone=15")),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_with_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.out == ""


class TestLoadgenCommand:
    def test_loadgen_prints_throughput_and_writes_json(self, capsys, tmp_path):
        path = tmp_path / "loadgen.json"
        args = ["loadgen", "--config", "4s-8z-80c-60cp", "--joins", "4", "--leaves", "4"]
        args += ["--moves", "4", "--epochs", "3", "--warmup", "1", "--json", str(path)]
        assert main(args) == 0
        assert "Epoch throughput: 4s-8z-80c-60cp" in capsys.readouterr().out
        (result,) = json.loads(path.read_text())
        assert result["epochs"] == 3 and result["events_per_epoch"] == 12
        assert "arena" not in result and "measurement_backend" not in result
        assert result["arena_stats"]["acquires"] > 0
