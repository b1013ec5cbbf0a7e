"""Tests for the per-table / per-figure experiment drivers (small, fast runs)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401
from repro.dynamics.churn import ChurnSpec
from repro.experiments.ablation import format_ablation, run_ablation
from repro.experiments.baselines_compare import (
    format_baseline_comparison,
    run_baseline_comparison,
)
from repro.experiments.controller import run_controller
from repro.experiments.dynamics import run_dynamics
from repro.experiments.federation import run_federation
from repro.experiments.figure4 import format_figure4, run_figure4
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.runtime import format_runtime, run_runtime
from repro.experiments.scenarios import run_scenarios
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import format_table4, run_table4

SMALL_LABEL = "5s-15z-200c-100cp"
ALGOS = ["ranz-virc", "grez-grec"]


class TestTable1Driver:
    def test_small_run_structure(self):
        result = run_table1(
            labels=[SMALL_LABEL],
            algorithms=ALGOS,
            num_runs=2,
            seed=0,
            optimal_labels=[SMALL_LABEL],
        )
        assert result.keys == [SMALL_LABEL]
        assert result.algorithms == ALGOS
        summaries = result.results[SMALL_LABEL].summaries
        assert set(summaries) == {"ranz-virc", "grez-grec", "optimal"}
        # Headline ordering of the paper on this configuration.
        assert summaries["grez-grec"].pqos.mean >= summaries["ranz-virc"].pqos.mean
        assert summaries["optimal"].pqos.mean >= summaries["grez-grec"].pqos.mean - 0.02

    def test_rows_and_formatting(self):
        result = run_table1(
            labels=[SMALL_LABEL], algorithms=ALGOS, num_runs=1, seed=0, optimal_labels=()
        )
        assert result.cell(SMALL_LABEL, "optimal") == "-"
        text = format_table1(result)
        assert "Table 1 (measured)" in text
        assert "Table 1 (paper)" in text
        assert SMALL_LABEL in text

    def test_optimal_skipped_for_excluded_labels(self):
        result = run_table1(
            labels=[SMALL_LABEL], algorithms=ALGOS, num_runs=1, seed=0, optimal_labels=[]
        )
        assert "optimal" not in result.results[SMALL_LABEL].summaries


class TestFigure4Driver:
    def test_cdfs_on_custom_grid(self):
        grid = np.linspace(250, 500, 6)
        result = run_figure4(
            label=SMALL_LABEL, algorithms=ALGOS, num_runs=1, seed=0, grid=grid
        )
        assert set(result.cdfs) == set(ALGOS)
        for cdf in result.cdfs.values():
            np.testing.assert_allclose(cdf.grid, grid)
            assert (np.diff(cdf.values) >= -1e-12).all()
        rows = result.rows()
        assert len(rows) == 6
        text = format_figure4(result)
        assert "Figure 4" in text and "pQoS" in text

    def test_better_algorithm_dominates_cdf(self):
        result = run_figure4(label=SMALL_LABEL, num_runs=2, seed=0)
        grez = result.cdfs["grez-grec"]
        ranz = result.cdfs["ranz-virc"]
        # GreZ-GreC's delay CDF should dominate RanZ-VirC's at the delay bound.
        assert grez.at(250.0) >= ranz.at(250.0)


class TestFigure5Driver:
    def test_correlation_sweep(self):
        result = run_figure5(
            label=SMALL_LABEL, correlations=[0.0, 1.0], algorithms=ALGOS, num_runs=2, seed=0
        )
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
        result = run_figure6(
            label=SMALL_LABEL, types=[0, 3], algorithms=ALGOS, num_runs=1, seed=0
        )
        assert result.keys == [0, 3]
        rows = result.panel("utilization")
        assert len(rows) == 2
        # Virtual-world clustering (type 3) raises utilisation vs type 0 (Fig. 6b shape).
        util_type0, util_type3 = (r.utilization("grez-grec") for r in result.results.values())
        assert util_type3 >= util_type0 - 0.05
        assert "Figure 6" in format_figure6(result)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            run_figure6(label=SMALL_LABEL, types=[9], num_runs=1)


class TestTable3Driver:
    def test_churn_experiment(self):
        result = run_table3(
            label=SMALL_LABEL,
            algorithms=ALGOS,
            num_runs=2,
            seed=0,
            churn=ChurnSpec(num_joins=40, num_leaves=40, num_moves=40),
        )
        assert result.rows == ALGOS
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
        result = run_table4(
            label=SMALL_LABEL, error_factors=[1.2, 2.0], algorithms=ALGOS, num_runs=2, seed=0
        )
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
        result = run_ablation(
            label=SMALL_LABEL, variants=["grez-grec", "grez-grec-dynamic"], num_runs=1, seed=0
        )
        assert result.keys == [SMALL_LABEL]
        assert list(result.results[SMALL_LABEL].summaries) == ["grez-grec", "grez-grec-dynamic"]
        assert "Ablation" in format_ablation(result)

    def test_baseline_comparison(self):
        result = run_baseline_comparison(
            labels=[SMALL_LABEL], solvers=["grez-grec", "load-balance"], num_runs=1, seed=0
        )
        rows = result.panel("pqos")
        assert len(rows) == 1
        # grez-grec column >= load-balance column.
        assert rows[0][1] >= rows[0][2] - 0.05
        assert "Baseline comparison" in format_baseline_comparison(result)

    def test_runtime(self):
        result = run_runtime(
            labels=[SMALL_LABEL],
            solvers=["grez-grec", "ranz-virc"],
            num_runs=1,
            seed=0,
            optimal_labels=[SMALL_LABEL],
            optimal_time_limit=30.0,
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
        from repro.experiments.dynamics import format_dynamics, run_dynamics

        result = run_dynamics(
            label=SMALL_LABEL,
            algorithms=ALGOS,
            num_runs=2,
            seed=0,
            num_epochs=3,
            policy="incremental",
            churn=ChurnSpec(10, 10, 10),
        )
        assert [name for name, _ in result.columns[::2]] == ALGOS
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
        from repro.experiments.dynamics import run_dynamics

        kwargs = dict(
            label=SMALL_LABEL,
            algorithms=["grez-grec"],
            num_runs=2,
            seed=3,
            num_epochs=2,
            policy="warm_start",
            churn=ChurnSpec(10, 10, 10),
        )
        serial = run_dynamics(**kwargs, workers=None)
        parallel = run_dynamics(**kwargs, workers=2)
        for epoch in range(2):
            for kind in ("adopted", "stale"):
                key = (epoch, ("grez-grec", kind))
                assert serial.stats[key].mean == parallel.stats[key].mean

    def test_every_k_policy_resolved_name(self):
        from repro.experiments.dynamics import run_dynamics

        result = run_dynamics(
            label=SMALL_LABEL,
            algorithms=["grez-virc"],
            num_runs=1,
            seed=0,
            num_epochs=2,
            policy="every_k_epochs",
            policy_period=2,
            churn=ChurnSpec(5, 5, 5),
        )
        assert result.setting["policy"] == "every_2_epochs"


class TestControllerDriver:
    def test_small_run_structure(self):
        from repro.dynamics.policies import RebalancePolicy
        from repro.dynamics.infrastructure import ServerChurnSpec
        from repro.dynamics.migration import MigrationCostModel
        from repro.experiments.controller import format_controller, run_controller

        policies = {
            "lazy": RebalancePolicy(target_pqos=0.5),
            "eager": RebalancePolicy(target_pqos=0.99, repair_slack=0.0),
        }
        result = run_controller(
            label=SMALL_LABEL,
            algorithm="grez-grec",
            policies=policies,
            num_runs=2,
            seed=0,
            num_epochs=2,
            churn=ChurnSpec(15, 15, 15),
            server_churn=ServerChurnSpec(num_joins=1, num_leaves=1),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        )
        assert result.rows == ["lazy", "eager"]
        assert result.num_runs == 2 and result.setting["num_epochs"] == 2
        for name in result.rows:
            assert result.stats[(name, "mean_pqos")].count == 2
            assert 0.0 <= result.stats[(name, "mean_pqos")].mean <= 1.0
            assert result.stats[(name, "migration_cost")].mean >= 0.0
        # The eager policy re-executes more and migrates at least as much.
        assert (
            result.stats[("eager", "rebalances")].mean
            >= result.stats[("lazy", "rebalances")].mean
        )
        text = format_controller(result)
        assert "Rebalance controller" in text and SMALL_LABEL in text
        assert "migration cost" in text

    def test_default_policy_ladder_resolves_budget(self):
        from repro.experiments.controller import run_controller

        result = run_controller(
            label=SMALL_LABEL,
            num_runs=1,
            seed=1,
            num_epochs=2,
            churn=ChurnSpec(10, 10, 10),
        )
        assert any("budgeted" in name for name in result.rows)
        assert result.setting["migration_cost"].cost_per_client == 1.0
        assert not result.setting["server_churn"].is_static

    def test_workers_do_not_change_results(self):
        from repro.experiments.controller import run_controller

        kwargs = dict(
            label=SMALL_LABEL,
            num_runs=2,
            seed=4,
            num_epochs=2,
            churn=ChurnSpec(10, 10, 10),
        )
        serial = run_controller(**kwargs, workers=None)
        parallel = run_controller(**kwargs, workers=2)
        for key, stat in serial.stats.items():
            assert stat.mean == parallel.stats[key].mean

    def test_every_policy_replays_the_same_churn_stream(self):
        """Two identically-configured policies must see identical runs."""
        from repro.dynamics.policies import RebalancePolicy
        from repro.experiments.controller import run_controller

        twin = dict(target_pqos=0.9, repair_slack=0.05)
        result = run_controller(
            label=SMALL_LABEL,
            policies={"a": RebalancePolicy(**twin), "b": RebalancePolicy(**twin)},
            num_runs=2,
            seed=7,
            num_epochs=3,
            churn=ChurnSpec(15, 15, 15),
        )
        for metric in ("mean_pqos", "worst_pqos", "repairs", "rebalances", "migration_cost"):
            assert result.stats[("a", metric)].mean == result.stats[("b", metric)].mean


class TestFederationDriver:
    def test_small_run_structure(self):
        from repro.experiments.federation import format_federation, run_federation

        result = run_federation(
            label=SMALL_LABEL,
            num_shards=2,
            arbiters=["static", "proportional"],
            num_runs=2,
            seed=0,
            num_epochs=2,
        )
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
        from repro.experiments.federation import run_federation

        kwargs = dict(
            label=SMALL_LABEL,
            num_shards=2,
            arbiters=["static", "proportional"],
            num_runs=2,
            seed=3,
            num_epochs=2,
        )
        serial = run_federation(**kwargs, workers=None)
        parallel = run_federation(**kwargs, workers=2)
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
    "run",
    [
        run_table3,
        run_dynamics,
        run_scenarios,
        run_controller,
        run_federation,
    ],
    ids=lambda run: run.__name__,
)
def test_zero_runs_rejected(run):
    """No run means no measurement: every engine study refuses it up front."""
    with pytest.raises(ValueError, match="num_runs"):
        run(label=SMALL_LABEL, num_runs=0)
