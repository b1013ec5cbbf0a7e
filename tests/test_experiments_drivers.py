"""Tests for the per-table / per-figure experiment specs (small, fast runs)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.baselines  # noqa: F401
from repro.dynamics.churn import ChurnSpec
from repro.experiments.ablation import ABLATION, format_ablation
from repro.experiments.baselines_compare import BASELINES, format_baseline_comparison
from repro.experiments.config import ExperimentConfig, ExperimentSpec, run
from repro.experiments.controller import CONTROLLER, format_controller
from repro.experiments.dynamics import DYNAMICS, format_dynamics
from repro.experiments.federation import FEDERATION, format_federation
from repro.experiments.figure4 import FIGURE4, format_figure4, run_figure4
from repro.experiments.figure5 import FIGURE5, format_figure5
from repro.experiments.figure6 import FIGURE6, format_figure6
from repro.experiments.runtime import RUNTIME, format_runtime
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.table1 import TABLE1, format_table1
from repro.experiments.table3 import TABLE3, format_table3
from repro.experiments.table4 import TABLE4, format_table4

SMALL_LABEL = "5s-15z-200c-100cp"
ALGOS = ("ranz-virc", "grez-grec")


def _run(spec: ExperimentSpec, num_runs: int, seed=0, workers=None, **shrink):
    """Run ``spec`` shrunk by ``shrink`` on :data:`SMALL_LABEL` (unless ``labels`` is given)."""
    spec = replace(spec, **{"labels": (SMALL_LABEL,), **shrink})
    return run(spec, ExperimentConfig(num_runs=num_runs, seed=seed, workers=workers))


class TestTable1Driver:
    def test_small_run_structure(self):
        result = _run(TABLE1, 2, algorithms=ALGOS, exact_labels=(SMALL_LABEL,))
        assert result.keys == [SMALL_LABEL]
        assert result.algorithms == list(ALGOS)
        summaries = result.results[SMALL_LABEL].summaries
        assert set(summaries) == {"ranz-virc", "grez-grec", "optimal"}
        # Headline ordering of the paper on this configuration.
        assert summaries["grez-grec"].pqos.mean >= summaries["ranz-virc"].pqos.mean
        assert summaries["optimal"].pqos.mean >= summaries["grez-grec"].pqos.mean - 0.02

    def test_rows_and_formatting(self):
        result = _run(TABLE1, 1, algorithms=ALGOS, exact_labels=())
        assert result.cell(SMALL_LABEL, "optimal") == "-"
        text = format_table1(result)
        assert "Table 1 (measured)" in text
        assert "Table 1 (paper)" in text
        assert SMALL_LABEL in text

    def test_optimal_skipped_for_excluded_labels(self):
        result = _run(TABLE1, 1, algorithms=ALGOS, exact_labels=())
        assert "optimal" not in result.results[SMALL_LABEL].summaries


class TestFigure4Driver:
    def test_cdfs_on_the_paper_grid(self):
        result = _run(FIGURE4, 1, algorithms=ALGOS)
        assert set(result.cdfs) == set(ALGOS)
        for cdf in result.cdfs.values():
            np.testing.assert_allclose(cdf.grid, np.linspace(250, 500, 26))
            assert (np.diff(cdf.values) >= -1e-12).all()
        rows = result.rows()
        assert len(rows) == 26
        text = format_figure4(result)
        assert "Figure 4" in text and "pQoS" in text

    def test_better_algorithm_dominates_cdf(self):
        result = _run(FIGURE4, 2)
        grez = result.cdfs["grez-grec"]
        ranz = result.cdfs["ranz-virc"]
        # GreZ-GreC's delay CDF should dominate RanZ-VirC's at the delay bound.
        assert grez.at(250.0) >= ranz.at(250.0)

    def test_run_figure4_is_the_spec_run_serially(self):
        """The benchmark's entry point runs :data:`FIGURE4` at its defaults."""
        seed = np.random.SeedSequence([5, 1])
        direct = run(FIGURE4, ExperimentConfig(num_runs=1, seed=np.random.SeedSequence([5, 1])))
        assert run_figure4(num_runs=1, seed=seed).pqos == direct.pqos


class TestFigure5Driver:
    def test_correlation_sweep(self):
        result = _run(FIGURE5, 2, sweep=(0.0, 1.0), algorithms=ALGOS)
        assert result.keys == [0.0, 1.0]
        series = result.pqos_series("grez-grec")
        assert len(series) == 2
        # Delay-aware initial assignment benefits from correlation (Fig. 5a shape).
        assert series[1] >= series[0] - 0.05
        rows = result.panel("pqos")
        assert len(rows) == 2 and len(rows[0]) == 1 + len(ALGOS)
        with pytest.raises(ValueError):
            result.panel("latency")
        assert "Figure 5(a)" in format_figure5(result)


class TestFigure6Driver:
    def test_distribution_type_sweep(self):
        result = _run(FIGURE6, 1, sweep=(0, 3), algorithms=ALGOS)
        assert result.keys == [0, 3]
        rows = result.panel("utilization")
        assert len(rows) == 2
        # Virtual-world clustering (type 3) raises utilisation vs type 0 (Fig. 6b shape).
        util_type0, util_type3 = (r.utilization("grez-grec") for r in result.results.values())
        assert util_type3 >= util_type0 - 0.05
        assert "Figure 6" in format_figure6(result)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            _run(FIGURE6, 1, sweep=(9,))


class TestTable3Driver:
    def test_churn_experiment(self):
        result = _run(
            TABLE3, 2, algorithms=ALGOS, churn=ChurnSpec(num_joins=40, num_leaves=40, num_moves=40)
        )
        assert result.rows == list(ALGOS)
        for name in ALGOS:
            assert 0.0 <= result.mean(name, "before") <= 1.0
            assert 0.0 <= result.mean(name, "after") <= 1.0
            assert 0.0 <= result.mean(name, "re-executed") <= 1.0
        # Re-execution should not be worse than the stale assignment (Table 3 shape).
        assert result.mean("grez-grec", "re-executed") >= result.mean("grez-grec", "after") - 0.02
        rows = result.table()
        assert len(rows) == len(ALGOS)
        text = format_table3(result)
        assert "Table 3 (measured)" in text and "Table 3 (paper)" in text


class TestTable4Driver:
    def test_error_factor_sweep(self):
        result = _run(TABLE4, 2, sweep=(1.2, 2.0), algorithms=ALGOS)
        assert result.keys == [1.2, 2.0]
        for factor in (1.2, 2.0):
            summaries = result.results[factor].summaries
            assert set(summaries) == set(ALGOS)
        # Larger estimation error cannot help the delay-aware heuristic.
        assert (
            result.results[2.0].pqos("grez-grec")
            <= result.results[1.2].pqos("grez-grec") + 0.05
        )
        text = format_table4(result)
        assert "Table 4 (measured)" in text and "e=1.2" in text


class TestExtensionDrivers:
    def test_ablation(self):
        result = _run(ABLATION, 1, algorithms=("grez-grec", "grez-grec-dynamic"))
        assert result.keys == [SMALL_LABEL]
        assert list(result.results[SMALL_LABEL].summaries) == ["grez-grec", "grez-grec-dynamic"]
        assert "Ablation" in format_ablation(result)

    def test_baseline_comparison(self):
        result = _run(BASELINES, 1, algorithms=("grez-grec", "load-balance"))
        rows = result.panel("pqos")
        assert len(rows) == 1
        # grez-grec column >= load-balance column.
        assert rows[0][1] >= rows[0][2] - 0.05
        assert "Baseline comparison" in format_baseline_comparison(result)

    def test_runtime(self):
        result = _run(
            RUNTIME, 1, algorithms=("grez-grec", "ranz-virc"), exact_labels=(SMALL_LABEL,)
        )
        assert result.labels == [SMALL_LABEL]
        assert "optimal" in result.solvers
        runtimes = result.runtimes[SMALL_LABEL]
        assert all(v >= 0 for v in runtimes.values())
        # Heuristics are much faster than the exact MILP (paper Section 4.2).
        assert runtimes["grez-grec"] <= runtimes["optimal"]
        assert "Runtime" in format_runtime(result)


class TestDynamicsDriver:
    def test_small_run_structure(self):
        result = _run(
            DYNAMICS,
            2,
            algorithms=ALGOS,
            num_epochs=3,
            policy="incremental",
            churn=ChurnSpec(10, 10, 10),
        )
        assert [name for name, _ in result.columns[::2]] == list(ALGOS)
        assert result.rows == [0, 1, 2] and result.num_runs == 2
        assert result.setting["policy"] == "incremental"
        for name in ALGOS:
            trajectory = [result.mean(epoch, (name, "adopted")) for epoch in result.rows]
            assert len(trajectory) == 3
            assert all(0.0 <= v <= 1.0 for v in trajectory)
            for epoch in range(3):
                assert result.stats[(epoch, (name, "adopted"))].count == 2
        text = format_dynamics(result)
        assert "Longitudinal dynamics" in text and SMALL_LABEL in text

    def test_workers_do_not_change_results(self):
        shrink = dict(
            algorithms=("grez-grec",),
            num_epochs=2,
            policy="warm_start",
            churn=ChurnSpec(10, 10, 10),
        )
        serial = _run(DYNAMICS, 2, seed=3, workers=None, **shrink)
        parallel = _run(DYNAMICS, 2, seed=3, workers=2, **shrink)
        for epoch in range(2):
            for kind in ("adopted", "stale"):
                key = (epoch, ("grez-grec", kind))
                assert serial.stats[key].mean == parallel.stats[key].mean

    def test_every_k_policy_resolved_name(self):
        result = _run(
            DYNAMICS,
            1,
            algorithms=("grez-virc",),
            num_epochs=2,
            policy="every_2_epochs",
            churn=ChurnSpec(5, 5, 5),
        )
        assert result.setting["policy"] == "every_2_epochs"


class TestControllerDriver:
    def test_small_run_structure(self):
        lazy, eager = "lazy (target 0.80)", "eager (target 0.99)"
        result = _run(CONTROLLER, 2, sweep=(lazy, eager), num_epochs=2, churn=ChurnSpec(15, 15, 15))
        assert result.rows == [lazy, eager]
        assert result.num_runs == 2 and result.setting["num_epochs"] == 2
        for name in result.rows:
            assert result.stats[(name, "mean_pqos")].count == 2
            assert 0.0 <= result.stats[(name, "mean_pqos")].mean <= 1.0
            assert result.stats[(name, "migration_cost")].mean >= 0.0
        # The eager policy re-executes more and migrates at least as much.
        assert result.stats[(eager, "rebalances")].mean >= result.stats[(lazy, "rebalances")].mean
        text = format_controller(result)
        assert "Rebalance controller" in text and SMALL_LABEL in text
        assert "migration cost" in text

    def test_default_policy_ladder_resolves_budget(self):
        result = _run(CONTROLLER, 1, seed=1, num_epochs=2, churn=ChurnSpec(10, 10, 10))
        assert any("budgeted" in name for name in result.rows)
        assert result.setting["migration_cost"].cost_per_client == 1.0
        assert not result.setting["server_churn"].is_static

    def test_workers_do_not_change_results(self):
        shrink = dict(num_epochs=2, churn=ChurnSpec(10, 10, 10))
        serial = _run(CONTROLLER, 2, seed=4, workers=None, **shrink)
        parallel = _run(CONTROLLER, 2, seed=4, workers=2, **shrink)
        for key, stat in serial.stats.items():
            assert stat.mean == parallel.stats[key].mean

    def test_every_policy_replays_the_same_churn_stream(self):
        """Two identically-configured policies must see identical runs."""
        from repro.dynamics.policies import RebalancePolicy
        from repro.experiments.config import config_from_label, engine_study_config
        from repro.experiments.controller import _controller_run
        from repro.experiments.runner import replicate

        twin = dict(target_pqos=0.9, repair_slack=0.05)
        point = dict(
            config=engine_study_config(config_from_label(SMALL_LABEL)),
            policies=(("a", RebalancePolicy(**twin)), ("b", RebalancePolicy(**twin))),
            churn=ChurnSpec(15, 15, 15),
            num_epochs=3,
        )
        for observations in replicate(_controller_run, [point], num_runs=2, seed=7):
            for metric in ("mean_pqos", "worst_pqos", "repairs", "rebalances", "migration_cost"):
                assert observations[("a", metric)] == observations[("b", metric)]


class TestFederationDriver:
    SHRINK = dict(num_shards=2, sweep=("static", "proportional"), num_epochs=2)

    def test_small_run_structure(self):
        result = _run(FEDERATION, 2, **self.SHRINK)
        assert result.rows == ["static", "proportional"]
        assert result.num_runs == 2
        assert result.setting["client_weights"] == (2.0, 1.0)
        budget = result.setting["migration_budget"]
        for name in result.rows:
            assert result.stats[(name, "mean_pqos")].count == 2
            assert 0.0 <= result.stats[(name, "worst_shard_pqos")].mean <= 1.0
            assert result.stats[(name, "pqos_spread")].mean >= 0.0
            # The per-shard budget bounds every aggregate epoch's bill by
            # num_shards x budget.
            assert (
                result.stats[(name, "max_epoch_migration_cost")].mean
                <= 2 * budget + 1e-9
            )
        text = format_federation(result)
        assert "Federated arbitration" in text and SMALL_LABEL in text
        assert "worst-shard pQoS" in text

    def test_workers_do_not_change_results(self):
        serial = _run(FEDERATION, 2, seed=3, workers=None, **self.SHRINK)
        parallel = _run(FEDERATION, 2, seed=3, workers=2, **self.SHRINK)
        for key, stat in serial.stats.items():
            assert stat.mean == parallel.stats[key].mean

    def test_shard_means_feed_worst_shard_and_spread(self):
        from repro.dynamics.federation_engine import FederatedSimulator
        from repro.experiments.federation import _shard_means
        from repro.world.federation import build_federation
        from tests.conftest import make_small_config

        world = build_federation(
            make_small_config(), num_shards=3, seed=11, client_weights=[3, 2, 1]
        )
        records = FederatedSimulator(
            world=world, algorithms=["grez-grec"], churn_spec=ChurnSpec(5, 5, 5), seed=1
        ).run(2)
        expected = []
        for shard in range(3):
            values = [r.pqos_adopted for r in records if r.shard_id == shard]
            expected.append(sum(values) / len(values))
        assert _shard_means(records) == pytest.approx(expected)
        # The aggregate records never count as a shard.
        aggregate = [r for r in records if r.shard_id not in range(3)]
        assert aggregate and _shard_means(aggregate) == []

    def test_registry_exposes_federation(self):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("federation")
        assert spec.supports_workers
        assert "shard" in spec.description.lower() or "arbiter" in spec.description.lower()


@pytest.mark.parametrize(
    "spec", [TABLE3, DYNAMICS, SCENARIOS, CONTROLLER, FEDERATION], ids=lambda s: s.experiment_id
)
def test_zero_runs_rejected(spec):
    """No run means no measurement: an engine study cannot even be configured for it."""
    with pytest.raises(ValueError, match="num_runs"):
        _run(spec, 0)
