"""Tests for repro.dynamics.scenarios — the incident scenario library.

Covers the spec-string DSL, canonical (order-deterministic) timeline
composition, the per-epoch runtime plans (capacity gating, flash-crowd decay,
diurnal modulation, delay overlays), bit-identity of scenario runs across
measurement backends and against the world-rebuild oracle, graceful
degradation end to end through
the engine / controller / federation, and the recovery metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.federation_engine import AGGREGATE_SHARD_ID, FederatedSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.policies import RebalancePolicy
from repro.dynamics.scenarios import (
    MIN_GATED_CAPACITY_BPS,
    SCENARIO_LIBRARY,
    DiurnalEvent,
    FlashCrowdEvent,
    LinkDegradationEvent,
    MaintenanceEvent,
    OutageEvent,
    ScenarioRuntime,
    ScenarioTimeline,
    build_timeline,
    parse_scenario,
)
from repro.metrics.recovery import recovery_report
from repro.world.federation import build_federation
from repro.world.scenario import build_scenario

from tests.conftest import make_small_config
from tests.reference.records import records_equal

#: Small-world churn used by every engine-level scenario test.
CHURN = ChurnSpec(num_joins=10, num_leaves=10, num_moves=5)


def _scenario(delay_backend="dense", **overrides):
    params = dict(num_clients=120, num_zones=8, num_servers=6, correlation=0.0)
    params.update(overrides)
    config = make_small_config(delay_backend=delay_backend, **params)
    return build_scenario(config, seed=1)


def _simulate(
    scenario,
    timeline,
    num_epochs,
    patience=6,
    seed=7,
    algorithms=("grez-grec",),
):
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=list(algorithms),
        churn_spec=CHURN,
        seed=seed,
        scenario_timeline=timeline,
        admission_policy=AdmissionPolicy(patience_epochs=patience),
    )
    return simulator.run(num_epochs)


# ---------------------------------------------------------------------- #
# DSL parsing and timeline composition.
# ---------------------------------------------------------------------- #
class TestParseScenario:
    def test_round_trips_every_kind(self):
        event = parse_scenario("outage:zone=3,radius=2,start=1,duration=4")
        assert event == OutageEvent(zone=3, radius=2, start=1, duration=4)
        event = parse_scenario("flashcrowd:zone=2,clients=50,tau=1.5,start=2")
        assert event == FlashCrowdEvent(zone=2, clients=50, tau=1.5, start=2)
        event = parse_scenario("diurnal:amplitude=0.4,period=6")
        assert event == DiurnalEvent(amplitude=0.4, period=6)
        event = parse_scenario("maintenance:period=4,window=2,frac=0.5,factor=0.1")
        assert event == MaintenanceEvent(period=4, window=2, fraction=0.5, factor=0.1)
        event = parse_scenario("linkdegrade:zone=1,radius=5,factor=2.5")
        assert event == LinkDegradationEvent(zone=1, radius=5, factor=2.5)

    def test_kind_alone_uses_defaults(self):
        assert parse_scenario("diurnal") == DiurnalEvent()

    def test_aliases(self):
        event = parse_scenario("maintenance:fraction=0.5,group_start=2")
        assert event == parse_scenario("maintenance:frac=0.5,group=2")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            parse_scenario("earthquake:zone=0")

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_scenario("outage:zone=0,blast=3")

    def test_malformed_parameter_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_scenario("outage:zone")

    def test_event_validation(self):
        with pytest.raises(ValueError):
            parse_scenario("outage:radius=0")
        with pytest.raises(ValueError):
            parse_scenario("outage:duration=0")
        with pytest.raises(ValueError):
            parse_scenario("flashcrowd:tau=0")
        with pytest.raises(ValueError):
            parse_scenario("maintenance:frac=1.5")
        with pytest.raises(ValueError):
            parse_scenario("linkdegrade:factor=0")


class TestTimeline:
    def test_composition_is_order_deterministic(self):
        a = build_timeline(["diurnal", "regional-outage"])
        b = build_timeline(["regional-outage", "diurnal"])
        assert a == b
        assert a.events == b.events

    def test_direct_construction_sorts_too(self):
        outage = OutageEvent(zone=0, radius=2, start=3)
        wave = DiurnalEvent()
        assert ScenarioTimeline((outage, wave)) == ScenarioTimeline((wave, outage))

    def test_library_names_expand(self):
        timeline = build_timeline("outage-flash-crowd")
        assert len(timeline) == 2
        kinds = {event.kind for event in timeline}
        assert kinds == {"outage", "flashcrowd"}

    def test_single_spec_string(self):
        timeline = build_timeline("outage:zone=0,radius=2")
        assert len(timeline) == 1 and not timeline.is_empty

    def test_non_event_raises(self):
        with pytest.raises(TypeError):
            ScenarioTimeline((42,))

    def test_every_library_entry_parses(self):
        for name in SCENARIO_LIBRARY:
            timeline = build_timeline(name)
            assert not timeline.is_empty


# ---------------------------------------------------------------------- #
# Runtime plans: gating, decay, modulation.
# ---------------------------------------------------------------------- #
class TestScenarioRuntime:
    @pytest.fixture(scope="class")
    def world(self):
        return _scenario()

    def test_outage_gates_and_restores_bit_exactly(self, world):
        timeline = build_timeline("outage:zone=0,radius=3,start=2,duration=2")
        runtime = ScenarioRuntime(timeline, world, num_epochs=6, seed=0)
        original = np.array(world.servers.capacities, dtype=np.float64)

        plan0 = runtime.plan_epoch(0, CHURN)
        assert plan0.server_churn is None  # nothing active yet

        plan2 = runtime.plan_epoch(2, CHURN)
        assert plan2.server_churn is not None
        gated = plan2.server_churn.servers.capacities
        assert (gated == MIN_GATED_CAPACITY_BPS).sum() == 3
        assert (gated > MIN_GATED_CAPACITY_BPS).any()  # at least one survivor

        # Second gated epoch: capacities unchanged -> no delta emitted.
        assert runtime.plan_epoch(3, CHURN).server_churn is None

        # Restoration is bit-exact.
        plan4 = runtime.plan_epoch(4, CHURN)
        assert plan4.server_churn is not None
        np.testing.assert_array_equal(plan4.server_churn.servers.capacities, original)
        assert runtime.plan_epoch(5, CHURN).server_churn is None

    def test_outage_keeps_one_server_even_at_full_radius(self, world):
        timeline = build_timeline(f"outage:zone=0,radius={world.num_servers + 5},start=0")
        runtime = ScenarioRuntime(timeline, world, num_epochs=2, seed=0)
        plan = runtime.plan_epoch(0, CHURN)
        gated = plan.server_churn.servers.capacities
        assert (gated > MIN_GATED_CAPACITY_BPS).sum() >= 1

    def test_flash_crowd_decays_exponentially(self, world):
        timeline = build_timeline("flashcrowd:zone=2,clients=40,tau=2,start=1,duration=4")
        runtime = ScenarioRuntime(timeline, world, num_epochs=6, seed=3)
        sizes = [runtime.plan_epoch(e, CHURN).extra_join_nodes.size for e in range(6)]
        expected = [0, 40] + [round(40 * np.exp(-t / 2)) for t in (1, 2, 3)] + [0]
        assert sizes == expected
        plan = runtime.plan_epoch(1, CHURN)
        assert (plan.extra_join_zones == 2).all()

    def test_diurnal_modulates_churn_spec(self, world):
        timeline = build_timeline("diurnal:amplitude=1.0,period=4,start=0")
        runtime = ScenarioRuntime(timeline, world, num_epochs=4, seed=0)
        crest = runtime.plan_epoch(1, CHURN).churn_spec  # sin(pi/2) = 1 -> x2 joins
        trough = runtime.plan_epoch(3, CHURN).churn_spec  # sin(3pi/2) = -1 -> 0 joins
        assert crest.num_joins == 2 * CHURN.num_joins
        assert crest.num_leaves == 0
        assert trough.num_joins == 0
        assert trough.num_leaves == 2 * CHURN.num_leaves

    def test_link_degradation_sets_node_factors(self, world):
        timeline = build_timeline("linkdegrade:zone=1,radius=10,factor=3,start=0,duration=1")
        runtime = ScenarioRuntime(timeline, world, num_epochs=2, seed=0)
        factors = runtime.plan_epoch(0, CHURN).node_delay_factors
        assert factors is not None
        assert (factors == 3.0).sum() == 10
        assert runtime.plan_epoch(1, CHURN).node_delay_factors is None

    def test_zone_out_of_range_raises(self, world):
        for spec in ("outage:zone={}", "flashcrowd:zone={},clients=10", "linkdegrade:zone={}"):
            timeline = build_timeline(spec.format(world.num_zones))
            with pytest.raises(ValueError, match=f"targets zone {world.num_zones}"):
                ScenarioRuntime(timeline, world, num_epochs=2, seed=0)

    def test_plans_are_deterministic_for_a_seed(self, world):
        timeline = build_timeline("outage-flash-crowd")
        a = ScenarioRuntime(timeline, world, num_epochs=5, seed=11)
        b = ScenarioRuntime(timeline, world, num_epochs=5, seed=11)
        for epoch in range(5):
            pa, pb = a.plan_epoch(epoch, CHURN), b.plan_epoch(epoch, CHURN)
            np.testing.assert_array_equal(pa.extra_join_nodes, pb.extra_join_nodes)
            assert pa.churn_spec == pb.churn_spec


# ---------------------------------------------------------------------- #
# Oracle checks, delay backends and composition determinism through the engine.
# ---------------------------------------------------------------------- #
class TestScenarioBackendIdentity:
    EPOCHS = 6

    @pytest.mark.parametrize("name", sorted(SCENARIO_LIBRARY))
    def test_measures_and_advances_match_oracles(
        self, name, advance_oracle_spy, measure_oracle_spy
    ):
        records = _simulate(_scenario(), name, self.EPOCHS)
        assert len(records) == self.EPOCHS
        assert len(advance_oracle_spy) == self.EPOCHS
        assert "carried_qos_count" in measure_oracle_spy
        assert any(r.clients_degraded > 0 for r in records) or all(
            r.capacity_deficit == 0.0 for r in records
        )

    def test_compact_backends_match_rebuild_oracle(self, advance_oracle_spy):
        world = _scenario(delay_backend="sparse", num_clients=100)
        records = _simulate(world, "outage-flash-crowd", 5)
        assert len(records) == 5
        assert advance_oracle_spy == [True] * 5

    @pytest.mark.parametrize("name", sorted(SCENARIO_LIBRARY))
    def test_restricted_sparse_matches_oracles(
        self, name, advance_oracle_spy, measure_oracle_spy
    ):
        # Top-2 of 6 servers: most pairs sit at the fill delay, so outages,
        # flash crowds and link changes re-cover real candidate sets.
        world = _scenario(delay_backend="sparse", sparse_top_k=2)
        assert world.client_server_delays.zone_candidates.shape[1] == 2
        records = _simulate(world, name, self.EPOCHS)
        assert len(records) == self.EPOCHS
        assert advance_oracle_spy == [True] * self.EPOCHS
        assert "carried_qos_count" in measure_oracle_spy

    def test_composition_order_is_immaterial_end_to_end(self):
        world = _scenario()
        forward = build_timeline(["diurnal:amplitude=0.6,period=4", "regional-outage"])
        backward = build_timeline(["regional-outage", "diurnal:amplitude=0.6,period=4"])
        records_f = _simulate(world, forward, 5)
        records_b = _simulate(world, backward, 5)
        for a, b in zip(records_f, records_b):
            assert records_equal(a, b, fields=EpochRecord.SCENARIO_FIELDS)


# ---------------------------------------------------------------------- #
# Graceful degradation end to end.
# ---------------------------------------------------------------------- #
class TestGracefulDegradation:
    def test_infeasible_world_never_raises_and_pool_drains(self):
        world = _scenario()
        records = _simulate(world, "outage-flash-crowd", 18)
        degraded = [r.clients_degraded for r in records]
        assert max(degraded) > 0  # the incident actually bit
        assert degraded[-1] == 0  # ... and the pool drained
        assert all(r.capacity_deficit >= 0.0 for r in records)
        report = recovery_report(records, algorithm="grez-grec")
        assert report.first_impact is not None
        assert report.degraded_client_epochs == sum(degraded)

    def test_outage_recovers_after_restoration(self):
        world = _scenario(total_capacity_mbps=40.0)
        records = _simulate(world, "regional-outage", 14)
        degraded = [r.clients_degraded for r in records]
        assert max(degraded) > 0
        assert degraded[-1] == 0
        report = recovery_report(records, algorithm="grez-grec")
        assert report.recovered
        assert report.time_to_recover > 0
        assert report.dip_depth > 0.0

    def test_classic_run_reports_zero_degradation(self):
        world = _scenario()
        simulator = ChurnSimulator(
            scenario=world, algorithms=["grez-grec"], churn_spec=CHURN, seed=7
        )
        records = simulator.run(3)
        assert all(r.clients_degraded == 0 and r.capacity_deficit == 0.0 for r in records)
        # Wide tolerance: ordinary churn jitter is not an incident.
        report = recovery_report(records, algorithm="grez-grec", tolerance=0.1)
        assert report.time_to_recover == 0 and report.recovered
        assert report.degraded_client_epochs == 0

    def test_scenario_rejects_explicit_server_churn(self):
        world = _scenario()
        with pytest.raises(ValueError, match="server"):
            ChurnSimulator(
                scenario=world,
                algorithms=["grez-grec"],
                churn_spec=CHURN,
                seed=7,
                server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1),
                scenario_timeline="regional-outage",
            )

    def test_controller_runs_scenarios_without_raising(self):
        world = _scenario(total_capacity_mbps=40.0)
        records = ChurnSimulator(
            scenario=world,
            algorithms=["grez-grec"],
            churn_spec=CHURN,
            policy=RebalancePolicy(),
            seed=7,
            scenario_timeline="regional-outage",
            admission_policy=AdmissionPolicy(patience_epochs=4),
        ).run(10)
        assert len(records) == 10
        assert {r.policy for r in records} == {"controller"}
        degraded = [r.clients_degraded for r in records]
        assert max(degraded) > 0
        assert degraded[-1] == 0

    def test_federation_aggregates_degradation(self):
        config = make_small_config(
            num_clients=120,
            num_zones=8,
            num_servers=6,
            correlation=0.0,
            total_capacity_mbps=40.0,
        )
        world = build_federation(config, num_shards=2, seed=5)
        simulator = FederatedSimulator(
            world=world,
            algorithms=["grez-grec"],
            churn_spec=CHURN,
            seed=7,
            scenario_timeline="regional-outage",
            admission_policy=AdmissionPolicy(patience_epochs=4),
        )
        records = simulator.run(10)
        shard_deg = {}
        for record in records:
            shard_deg.setdefault(record.epoch, {})[record.shard_id] = record.clients_degraded
        for epoch, by_shard in shard_deg.items():
            expected = sum(v for k, v in by_shard.items() if k != AGGREGATE_SHARD_ID)
            assert by_shard[AGGREGATE_SHARD_ID] == expected
        final = shard_deg[max(shard_deg)][AGGREGATE_SHARD_ID]
        assert final == 0


# ---------------------------------------------------------------------- #
# Recovery metrics.
# ---------------------------------------------------------------------- #
class TestRecoveryReport:
    def _record(self, epoch, pqos, degraded=0, deficit=0.0):
        return EpochRecord(
            epoch=epoch,
            algorithm="grez-grec",
            pqos_before=pqos,
            pqos_after=pqos,
            pqos_reexecuted=pqos,
            pqos_incremental=pqos,
            pqos_adopted=pqos,
            utilization_before=0.5,
            utilization_reexecuted=0.5,
            utilization_adopted=0.5,
            num_clients_before=100,
            num_clients_after=100,
            num_servers_after=5,
            policy="reexecute",
            zones_migrated=0,
            clients_migrated=0,
            migration_cost=0.0,
            clients_degraded=degraded,
            capacity_deficit=deficit,
        )

    def test_dip_and_recovery(self):
        records = [
            self._record(0, 0.95),
            self._record(1, 0.60, degraded=30, deficit=1e6),
            self._record(2, 0.70, degraded=10),
            self._record(3, 0.95, degraded=0),
        ]
        report = recovery_report(records)
        assert report.first_impact == 1
        assert report.time_to_recover == 2  # impacted at 1, healthy at 3
        assert report.recovered
        assert report.dip_depth == pytest.approx(0.35)
        assert report.dip_area == pytest.approx(0.35 + 0.25)
        assert report.degraded_client_epochs == 40
        assert report.max_clients_degraded == 30
        assert report.max_capacity_deficit == 1e6

    def test_unrecovered_run(self):
        records = [self._record(0, 0.95), self._record(1, 0.5, degraded=20)]
        report = recovery_report(records)
        assert not report.recovered
        assert report.time_to_recover == 1  # degraded from epoch 1 to the end

    def test_no_impact(self):
        records = [self._record(e, 0.95) for e in range(4)]
        report = recovery_report(records)
        assert report.first_impact is None
        assert report.time_to_recover == 0 and report.recovered

    def test_validation(self):
        with pytest.raises(ValueError):
            recovery_report([], baseline_epochs=1)
        with pytest.raises(ValueError):
            recovery_report([self._record(0, 0.9)], baseline_epochs=0)
        with pytest.raises(ValueError):
            recovery_report([self._record(0, 0.9)], tolerance=-0.1)
