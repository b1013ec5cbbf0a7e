"""Property tests for the incremental measurement engine.

The contract under test: every number the engine's incremental measurement
produces is **bit-identical** to the full recompute — the stash serves the
same delays/loads the assignment methods would compute, the O(churn)
carried-point delta equals building the carried assignment and re-reducing
it, and every measurement an engine run makes matches its full equivalent
(``measure_oracle_spy``) across churn mixes, repair policies, delay backends
and server churn.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core.assignment import Assignment
from repro.core.measures import (
    MEASURE_KEY,
    attach_measures,
    ensure_measures,
    measured_pqos,
    measured_server_loads,
    measured_utilization,
    stash_for,
)
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.core.regret import max_regret_assign
from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.events import ChurnBatch, apply_churn
from repro.dynamics.federation_engine import FederatedSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.measurement import carried_qos_count
from repro.dynamics.policies import carry_over_assignment
from repro.metrics.qos import _selection_stats
from repro.world.federation import build_federation
from repro.world.scenario import build_scenario

from tests.conftest import make_small_config
from tests.reference.regret_loop import assert_same_result, max_regret_assign_loop

#: name -> config overrides of ``make_small_config``.  The default top-k (8)
#: covers all 5 servers of the small world, so ``sparse`` holds the exact
#: delays in compact form; ``sparse-top2`` restricts each zone to 2 candidate
#: servers and sends every other pair to the fill delay.
DELAY_BACKENDS = {
    "dense": {},
    "sparse": {"delay_backend": "sparse"},
    "sparse-top2": {"delay_backend": "sparse", "sparse_top_k": 2},
}


@pytest.fixture(scope="module", params=sorted(DELAY_BACKENDS))
def backend_scenario(request):
    """One small scenario per delay backend (module-scoped: built once each)."""
    config = make_small_config(**DELAY_BACKENDS[request.param])
    return build_scenario(config, seed=7)


@pytest.fixture(scope="module")
def backend_instance(backend_scenario):
    return CAPInstance.from_scenario(backend_scenario)


# --------------------------------------------------------------------------- #
# Stash primitives: the refined phase's byproducts equal the full recompute.
# --------------------------------------------------------------------------- #
class TestMeasureStash:
    def test_grec_stash_is_bitwise_full_recompute(self, backend_instance):
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        stash = stash_for(assignment, backend_instance)
        assert stash is not None
        np.testing.assert_array_equal(stash.delays, assignment.client_delays(backend_instance))
        np.testing.assert_array_equal(
            stash.server_loads, assignment.server_loads(backend_instance)
        )
        assert stash.qos_count == int(assignment.qos_mask(backend_instance).sum())

    def test_measured_wrappers_equal_spec_exactly(self, backend_instance):
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        assert measured_pqos(assignment, backend_instance) == assignment.pqos(backend_instance)
        assert measured_utilization(
            assignment, backend_instance
        ) == assignment.resource_utilization(backend_instance)
        np.testing.assert_array_equal(
            measured_server_loads(assignment, backend_instance),
            assignment.server_loads(backend_instance),
        )

    def test_wrong_instance_invalidates_stash(self, backend_scenario, backend_instance):
        """A stash is only served for the exact instance it was measured on."""
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        other = CAPInstance.from_scenario(backend_scenario)
        assert stash_for(assignment, other) is None
        # The wrappers silently fall back to the full recompute.
        assert measured_pqos(assignment, other) == assignment.pqos(other)
        assert measured_utilization(assignment, other) == assignment.resource_utilization(other)

    def test_stashless_assignment_falls_back(self, backend_instance):
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        bare = Assignment(
            zone_to_server=assignment.zone_to_server,
            contact_of_client=assignment.contact_of_client,
        )
        assert MEASURE_KEY not in bare.metadata
        assert measured_pqos(bare, backend_instance) == bare.pqos(backend_instance)

    def test_ensure_measures_attaches_spec_values(self, backend_instance):
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        bare = Assignment(
            zone_to_server=assignment.zone_to_server,
            contact_of_client=assignment.contact_of_client,
        )
        stash = ensure_measures(bare, backend_instance)
        assert stash_for(bare, backend_instance) is stash
        np.testing.assert_array_equal(stash.delays, bare.client_delays(backend_instance))
        np.testing.assert_array_equal(stash.server_loads, bare.server_loads(backend_instance))

    def test_with_algorithm_copy_shares_stash(self, backend_instance):
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        relabelled = assignment.with_algorithm("renamed")
        assert stash_for(relabelled, backend_instance) is stash_for(assignment, backend_instance)

    def test_stash_arrays_read_only(self, backend_instance):
        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        stash = stash_for(assignment, backend_instance)
        with pytest.raises(ValueError):
            stash.delays[0] = 0.0
        with pytest.raises(ValueError):
            stash.server_loads[0] = 0.0

    def test_attach_measures_validates_shapes(self, tiny_instance):
        assignment = registry_solve(tiny_instance, "grez-grec", seed=0)
        with pytest.raises(ValueError):
            attach_measures(assignment, tiny_instance, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            attach_measures(
                assignment, tiny_instance, np.zeros(tiny_instance.num_clients), np.zeros(99)
            )


# --------------------------------------------------------------------------- #
# The O(churn) carried-point delta equals the carried assignment's full count.
# --------------------------------------------------------------------------- #
def _assert_carried_delta_matches(scenario, batch):
    instance = CAPInstance.from_scenario(scenario)
    assignment = registry_solve(instance, "grez-grec", seed=0)
    stash = ensure_measures(assignment, instance)
    churn = apply_churn(scenario.population, batch)
    new_instance = CAPInstance.from_scenario(scenario.apply_churn_delta(churn))
    carried = carry_over_assignment(assignment, churn, new_instance)
    expected = int(carried.qos_mask(new_instance).sum())
    got = carried_qos_count(stash, assignment, batch, churn, new_instance)
    assert got == expected


CHURN_MIXES = {
    "mixed": ChurnSpec(num_joins=25, num_leaves=25, num_moves=25),
    "join_only": ChurnSpec(num_joins=40, num_leaves=0, num_moves=0),
    "leave_heavy": ChurnSpec(num_joins=0, num_leaves=60, num_moves=0),
    "move_only": ChurnSpec(num_joins=0, num_leaves=0, num_moves=50),
}


class TestCarriedQosCount:
    @pytest.mark.parametrize("mix", sorted(CHURN_MIXES))
    def test_matches_full_count_across_mixes(self, backend_scenario, mix):
        for seed in (1, 2, 3):
            batch = generate_churn(backend_scenario, CHURN_MIXES[mix], seed=seed)
            _assert_carried_delta_matches(backend_scenario, batch)

    def test_emptied_zone(self, backend_scenario):
        """Every client of one zone leaves; its host keeps the (empty) zone."""
        instance = CAPInstance.from_scenario(backend_scenario)
        zone = int(instance.client_zones[0])
        leavers = np.flatnonzero(instance.client_zones == zone)
        assert leavers.size > 0
        batch = ChurnBatch(leave_indices=leavers)
        _assert_carried_delta_matches(backend_scenario, batch)

    def test_empty_batch_is_identity(self, backend_scenario):
        _assert_carried_delta_matches(backend_scenario, ChurnBatch())


# --------------------------------------------------------------------------- #
# End-to-end: every engine measurement matches its full recompute, bit for bit.
# --------------------------------------------------------------------------- #
def _run(scenario, *, policy, period=0, server_churn=None, epochs=4,
         churn=ChurnSpec(20, 20, 20), algorithms=("grez-grec",)):
    records = ChurnSimulator(
        scenario=scenario,
        algorithms=list(algorithms),
        churn_spec=churn,
        server_churn_spec=server_churn,
        seed=123,
        policy=policy,
        policy_period=period,
    ).run(epochs)
    assert len(records) == epochs * len(algorithms)
    return records


class TestEngineMeasuresMatchFullRecompute:
    """Each run is checked by ``measure_oracle_spy`` (``tests/reference/measurement_full.py``)."""

    @pytest.mark.parametrize(
        "policy,period",
        [("reexecute", 0), ("incremental", 0), ("warm_start", 0), ("every_k_epochs", 2)],
    )
    def test_policies_all_delay_backends(
        self, backend_scenario, policy, period, measure_oracle_spy
    ):
        _run(backend_scenario, policy=policy, period=period)
        assert measure_oracle_spy.count("carried_qos_count") == 4

    @pytest.mark.parametrize("policy", ["reexecute", "incremental"])
    def test_server_churn(self, backend_scenario, policy, measure_oracle_spy):
        """Fleet re-indexing disables the carried delta; the carried assignment is measured."""
        spec = ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05)
        _run(backend_scenario, policy=policy, server_churn=spec)
        assert "carried_qos_count" not in measure_oracle_spy
        assert measure_oracle_spy.count("measured_pqos") >= 2 * 4

    @pytest.mark.parametrize("mix", sorted(CHURN_MIXES))
    def test_churn_mixes(self, small_scenario, mix, measure_oracle_spy):
        _run(small_scenario, policy="incremental", churn=CHURN_MIXES[mix])
        assert measure_oracle_spy.count("carried_qos_count") == 4

    def test_stashless_baseline_algorithm(self, small_scenario, measure_oracle_spy):
        """Solvers that never stash still measure exactly (ensure_measures)."""
        _run(small_scenario, policy="reexecute", algorithms=("ranz-virc", "grez-grec"))
        assert measure_oracle_spy.count("carried_qos_count") == 2 * 4

    def test_federated_shards(self, measure_oracle_spy):
        world = build_federation(make_small_config(), num_shards=2, seed=31)
        records = FederatedSimulator(
            world=world,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(10, 10, 10),
            seed=5,
        ).run(3)
        assert len(records) == 3 * (2 + 1)
        assert "carried_qos_count" in measure_oracle_spy


class TestRemovedEngineKeywords:
    """Incremental measurement and the arena are the engines' only path."""

    @pytest.mark.parametrize("backend", ["full", "oracle"])
    def test_measurement_backend_other_than_incremental_rejected(self, small_scenario, backend):
        with pytest.raises(ValueError, match="removed"):
            ChurnSimulator(
                scenario=small_scenario, algorithms=["grez-grec"], measurement_backend=backend
            )
        world = build_federation(make_small_config(), num_shards=2, seed=31)
        with pytest.raises(ValueError, match="removed"):
            FederatedSimulator(world=world, algorithms=["grez-grec"], measurement_backend=backend)

    def test_incremental_keyword_accepted_and_not_stored(self, small_scenario):
        simulator = ChurnSimulator(
            scenario=small_scenario, algorithms=["grez-grec"], measurement_backend="incremental"
        )
        assert "measurement_backend" not in vars(simulator)
        world = build_federation(make_small_config(), num_shards=2, seed=31)
        federated = FederatedSimulator(
            world=world, algorithms=["grez-grec"], measurement_backend="incremental"
        )
        assert "measurement_backend" not in vars(federated)

    def test_arena_keyword_removed(self, small_scenario):
        for arena in (True, False):
            with pytest.raises(TypeError):
                ChurnSimulator(scenario=small_scenario, algorithms=["grez-grec"], arena=arena)
        world = build_federation(make_small_config(), num_shards=2, seed=31)
        with pytest.raises(TypeError):
            FederatedSimulator(world=world, algorithms=["grez-grec"], arena=True)


# --------------------------------------------------------------------------- #
# Delay-aware least_loaded fallback mask.
# --------------------------------------------------------------------------- #
class TestFallbackMask:
    def test_mask_restricts_emergency_placement(self):
        # One item that fits nowhere: server 1 has the most residual capacity
        # but only server 0 is an allowed candidate.
        desirability = np.array([[1.0], [2.0]])
        result = max_regret_assign(
            desirability,
            demands=np.array([10.0]),
            capacities=np.array([5.0, 8.0]),
            fallback_allowed=np.array([[True], [False]]),
        )
        assert result.item_to_server.tolist() == [0]
        assert result.capacity_exceeded

    def test_all_false_column_falls_back_unrestricted(self):
        desirability = np.array([[1.0], [2.0]])
        result = max_regret_assign(
            desirability,
            demands=np.array([10.0]),
            capacities=np.array([5.0, 8.0]),
            fallback_allowed=np.array([[False], [False]]),
        )
        # No allowed server at all: the classic residual-capacity argmax.
        assert result.item_to_server.tolist() == [1]

    def test_skip_fallback_ignores_mask(self):
        result = max_regret_assign(
            np.array([[1.0], [2.0]]),
            demands=np.array([10.0]),
            capacities=np.array([5.0, 8.0]),
            fallback="skip",
            fallback_allowed=np.array([[True], [False]]),
        )
        assert result.item_to_server.tolist() == [-1]

    def test_bad_mask_shape_rejected(self):
        with pytest.raises(ValueError):
            max_regret_assign(
                np.array([[1.0], [2.0]]),
                demands=np.array([10.0]),
                capacities=np.array([5.0, 8.0]),
                fallback_allowed=np.ones((3, 2), dtype=bool),
            )

    @pytest.mark.parametrize("recompute", [False, True])
    def test_engine_matches_loop_oracle_under_mask(self, recompute):
        rng = np.random.default_rng(9)
        num_servers, num_items = 6, 40
        desirability = rng.random((num_servers, num_items))
        demands = rng.uniform(1.0, 6.0, num_items)
        capacities = rng.uniform(5.0, 15.0, num_servers)  # scarce: fallback fires
        mask = rng.random((num_servers, num_items)) < 0.5
        kwargs = dict(recompute=recompute, fallback_allowed=mask)
        assert_same_result(
            max_regret_assign(desirability, demands, capacities, **kwargs),
            max_regret_assign_loop(desirability, demands, capacities, **kwargs),
        )


# --------------------------------------------------------------------------- #
# Selection-based qos_report statistics match numpy's sort-based reference.
# --------------------------------------------------------------------------- #
class TestSelectionStats:
    def test_matches_numpy_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 250))
            delays = rng.random(n) * float(rng.choice([1.0, 100.0, 1e6]))
            if rng.random() < 0.3:
                delays = np.round(delays, 2)  # exercise ties
            median, p95 = _selection_stats(delays)
            assert median == float(np.median(delays))
            assert p95 == float(np.percentile(delays, 95))

    def test_single_element(self):
        assert _selection_stats(np.array([42.0])) == (42.0, 42.0)

    def test_qos_report_uses_selection_stats(self, backend_instance):
        from repro.metrics.qos import qos_report

        assignment = registry_solve(backend_instance, "grez-grec", seed=0)
        report = qos_report(backend_instance, assignment)
        delays = assignment.client_delays(backend_instance)
        assert report.median_delay_ms == float(np.median(delays))
        assert report.p95_delay_ms == float(np.percentile(delays, 95))
        assert report.pqos == float((delays <= backend_instance.delay_bound).mean())
