"""Tests for the repro-dve command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from tests.golden.cli_corpus import COMMANDS, GOLDEN_PATH, option_table

GOLDEN_OPTIONS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


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
        # Shrink the experiment through its own keyword interface by patching the
        # registry entry's runner with smaller defaults.
        from repro.experiments import registry as reg

        spec = reg.get_experiment("figure5")

        def tiny_run(num_runs=1, seed=0):
            return spec.run(
                label="5s-15z-200c-100cp",
                correlations=[0.5],
                algorithms=["grez-virc"],
                num_runs=num_runs,
                seed=seed,
            )

        monkeypatch.setitem(
            reg.EXPERIMENTS,
            "figure5",
            reg.ExperimentSpec(
                experiment_id="figure5",
                paper_artifact=spec.paper_artifact,
                description=spec.description,
                run=tiny_run,
                format=spec.format,
            ),
        )
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

    def test_federate_rejects_bad_min_slice(self):
        for value in ("0", "1.5", "-0.1"):
            with pytest.raises(SystemExit):
                main(["federate", *self.SMALL, "--min-slice", value])

    @pytest.mark.parametrize(
        "world",
        [
            SMALL,
            ["--config", "4s-8z-80c-60cp", "--shards", "3", "--epochs", "4", "--seed", "7",
             "--arbiter", "proportional"],
        ],
        ids=["2-shards", "3-shards-proportional"],
    )
    def test_federate_shard_workers_stream_identical_csv(self, tmp_path, world):
        def run_to_csv(shard_workers):
            path = tmp_path / f"fed-sw{shard_workers or 'serial'}.csv"
            args = ["federate", *world, "--csv", str(path)]
            if shard_workers:
                args += ["--shard-workers", str(shard_workers)]
            assert main(args) == 0
            return path.read_text()

        serial = run_to_csv(None)
        assert run_to_csv(2) == serial
        assert run_to_csv(0) == serial  # 0 = all CPUs

    def test_federate_shard_workers_in_summary(self, capsys):
        assert main(["federate", *self.SMALL, "--shard-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "shard workers" in out

    def test_federate_profile_prints_shard_runtime(self, capsys):
        assert main(["federate", *self.SMALL, "--shard-workers", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Shard runtime" in out
        assert "barrier wait" in out
        assert "arbiter decisions" in out
        assert "all shards" in out

    def test_federate_profile_serial_also_works(self, capsys):
        assert main(["federate", *self.SMALL, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Shard runtime" in out

    def test_federate_profile_multi_run_is_ignored_with_note(self, capsys):
        assert main(["federate", *self.SMALL, "--runs", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "--profile" in out
        assert "Shard runtime" not in out

    def test_federate_rejects_bad_shard_workers(self):
        with pytest.raises(SystemExit):
            main(["federate", *self.SMALL, "--shard-workers", "-3"])

    def test_experiment_federation_forwards_shard_workers(self, capsys, monkeypatch):
        import dataclasses

        from repro.experiments import registry as reg

        spec = reg.get_experiment("federation")
        received = {}

        def tiny_run(num_runs=1, seed=0, workers=None, shard_workers=None):
            received["shard_workers"] = shard_workers
            return spec.run(
                label="4s-8z-80c-60cp",
                num_shards=2,
                num_epochs=2,
                arbiters=["proportional"],
                num_runs=num_runs,
                seed=seed,
                shard_workers=shard_workers,
            )

        monkeypatch.setitem(
            reg.EXPERIMENTS, "federation", dataclasses.replace(spec, run=tiny_run)
        )
        assert main(["experiment", "federation", "--runs", "1", "--shard-workers", "2"]) == 0
        assert received["shard_workers"] == 2
        assert "proportional" in capsys.readouterr().out

    def test_experiment_without_shards_notes_ignored_shard_workers(self, capsys, monkeypatch):
        import dataclasses

        from repro.experiments import registry as reg

        spec = reg.get_experiment("table1")

        def fake_run(**kwargs):
            assert "shard_workers" not in kwargs
            return "stub result"

        monkeypatch.setitem(
            reg.EXPERIMENTS,
            "table1",
            dataclasses.replace(spec, run=fake_run, format=lambda result: result),
        )
        assert main(["experiment", "table1", "--runs", "1", "--shard-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "--shard-workers ignored" in out
        assert "stub result" in out


#: Flags removed from each engine command since the golden option tables.
REMOVED_FLAGS = {
    "simulate": {"--measurement-backend"},
    "loadgen": {"--measurement-backend", "--no-arena", "--compare"},
    "federate": {"--measurement-backend"},
}


class TestEngineCommandOptions:
    """Against the golden option tables, each command lost only the removed flags."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_match_golden_minus_removed(self, command):
        expected = [
            (flag, option)
            for flag, option in GOLDEN_OPTIONS[command].items()
            if flag not in REMOVED_FLAGS[command]
        ]
        assert list(option_table(command).items()) == expected
        assert REMOVED_FLAGS[command] <= set(GOLDEN_OPTIONS[command])


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
