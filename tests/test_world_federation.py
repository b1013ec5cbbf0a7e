"""Tests for repro.world.federation — multi-shard worlds on one substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.federation import (
    FederatedWorld,
    build_federation,
    equal_slices,
    split_client_counts,
)
from repro.world.scenario import build_scenario
from repro.world.servers import ServerSet

from tests.conftest import make_small_config


class TestSliceHelpers:
    def test_equal_slices_conserve_exactly(self):
        caps = np.array([10.0, 7.0, 3.0])
        slices = equal_slices(caps, 3)
        assert slices.shape == (3, 3)
        assert np.allclose(slices.sum(axis=0), caps, rtol=1e-12)
        assert (slices > 0).all()

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 7, 16])
    def test_equal_slices_keep_the_weighted_formula_bits(self, num_shards):
        """The direct split is bit-identical to proportional slicing with
        all-ones weights, the formula every federation corpus was recorded on."""
        caps = np.random.default_rng(num_shards).uniform(1e6, 5e7, size=9)
        weights = np.ones(num_shards)
        expected = (weights / weights.sum())[:, None] * caps[None, :]
        expected[0] += caps - expected.sum(axis=0)
        np.testing.assert_array_equal(equal_slices(caps, num_shards), expected)

    def test_split_client_counts_sums_exactly(self):
        for total in (0, 1, 7, 100, 1001):
            for shards in (1, 2, 3, 7):
                counts = split_client_counts(total, shards)
                assert sum(counts) == total
                assert len(counts) == shards
                # Unweighted split is as even as possible.
                assert max(counts) - min(counts) <= 1

    def test_split_client_counts_weighted(self):
        counts = split_client_counts(100, 3, weights=[3, 2, 1])
        assert sum(counts) == 100
        assert counts[0] > counts[1] > counts[2]

    def test_split_client_counts_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            split_client_counts(10, 0)
        with pytest.raises(ValueError):
            split_client_counts(-1, 2)
        with pytest.raises(ValueError):
            split_client_counts(10, 2, weights=[1.0, -1.0])
        with pytest.raises(ValueError):
            split_client_counts(10, 2, weights=[1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def small_federation():
    return build_federation(make_small_config(), num_shards=3, seed=11)


class TestBuildFederation:
    def test_shards_share_substrate_by_identity(self, small_federation):
        fed = small_federation
        assert fed.num_shards == 3
        for shard in fed.shards:
            assert shard.topology is fed.topology
            assert shard.delay_model is fed.delay_model
            assert np.array_equal(shard.servers.nodes, fed.servers.nodes)

    def test_population_split_exactly(self, small_federation):
        base = make_small_config()
        assert sum(s.num_clients for s in small_federation.shards) == base.num_clients

    def test_slices_partition_full_capacity(self, small_federation):
        fed = small_federation
        assert np.allclose(fed.slices.sum(axis=0), fed.servers.capacities, rtol=1e-12)
        for i, shard in enumerate(fed.shards):
            assert np.array_equal(shard.servers.capacities, fed.slices[i])

    def test_every_shard_starts_with_an_equal_slice(self, small_federation):
        fed = small_federation
        np.testing.assert_allclose(
            fed.slices, np.broadcast_to(fed.servers.capacities / fed.num_shards, fed.slices.shape)
        )

    def test_client_weights_skew_population(self):
        fed = build_federation(
            make_small_config(), num_shards=3, seed=11, client_weights=[3, 2, 1]
        )
        counts = [s.num_clients for s in fed.shards]
        assert counts[0] > counts[1] > counts[2]

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_substrate_matches_build_scenario(self, num_shards):
        """The federation's topology, delays and fleet come from the same
        streams as those of a scenario built from the same seed."""
        scenario = build_scenario(make_small_config(), seed=4)
        fed = build_federation(make_small_config(), num_shards=num_shards, seed=4)
        np.testing.assert_array_equal(fed.delay_model.rtt, scenario.delay_model.rtt)
        np.testing.assert_array_equal(fed.servers.nodes, scenario.servers.nodes)
        np.testing.assert_array_equal(fed.servers.capacities, scenario.servers.capacities)

    def test_single_shard_gets_full_fleet(self):
        fed = build_federation(make_small_config(), num_shards=1, seed=3)
        assert np.array_equal(fed.shards[0].servers.capacities, fed.servers.capacities)

    def test_deterministic_for_same_seed(self):
        a = build_federation(make_small_config(), num_shards=2, seed=21)
        b = build_federation(make_small_config(), num_shards=2, seed=21)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.population.nodes, sb.population.nodes)
            assert np.array_equal(sa.population.zones, sb.population.zones)
            assert np.array_equal(
                sa.client_server_delays.toarray(),
                sb.client_server_delays.toarray(),
            )

    def test_shard_streams_independent_of_shard_count(self):
        """Adding a shard must not reshuffle the substrate RNG streams."""
        a = build_federation(make_small_config(), num_shards=2, seed=9)
        b = build_federation(make_small_config(), num_shards=3, seed=9)
        assert np.array_equal(a.servers.nodes, b.servers.nodes)
        assert np.array_equal(a.servers.capacities, b.servers.capacities)


class TestFederatedWorld:
    def test_validation_rejects_non_conserving_slices(self, small_federation):
        fed = small_federation
        bad = fed.slices * 1.5
        shards = tuple(s.with_server_capacities(bad[i]) for i, s in enumerate(fed.shards))
        with pytest.raises(ValueError, match="conservation"):
            FederatedWorld(
                topology=fed.topology,
                delay_model=fed.delay_model,
                servers=fed.servers,
                shards=shards,
                slices=bad,
            )

    def test_validation_rejects_mismatched_shard_capacities(self, small_federation):
        fed = small_federation
        with pytest.raises(ValueError, match="slice"):
            FederatedWorld(
                topology=fed.topology,
                delay_model=fed.delay_model,
                servers=fed.servers,
                shards=fed.shards,
                slices=np.roll(fed.slices, 1, axis=0),
            )

    def test_validation_rejects_foreign_substrate(self, small_federation):
        fed = small_federation
        foreign = build_scenario(make_small_config(), seed=99)
        with pytest.raises(ValueError, match="topology"):
            FederatedWorld(
                topology=fed.topology,
                delay_model=fed.delay_model,
                servers=fed.servers,
                shards=(foreign, *fed.shards[1:]),
                slices=fed.slices,
            )


class TestBuildScenarioSharedFleet:
    def test_servers_require_topology(self):
        servers = ServerSet(nodes=np.array([0]), capacities=np.array([1e6]))
        with pytest.raises(ValueError, match="topology"):
            build_scenario(make_small_config(), seed=0, servers=servers)

    def test_servers_outside_topology_rejected(self, small_scenario):
        topo = small_scenario.topology
        servers = ServerSet(
            nodes=np.array([topo.num_nodes]), capacities=np.array([1e6])
        )
        with pytest.raises(ValueError, match="outside"):
            build_scenario(
                make_small_config(),
                seed=0,
                topology=topo,
                delay_model=small_scenario.delay_model,
                servers=servers,
            )

    def test_supplied_fleet_preserves_client_streams(self, small_scenario):
        """Handing build_scenario a fleet must not perturb client sampling."""
        config = make_small_config()
        reference = build_scenario(
            config,
            seed=123,
            topology=small_scenario.topology,
            delay_model=small_scenario.delay_model,
        )
        supplied = build_scenario(
            config,
            seed=123,
            topology=small_scenario.topology,
            delay_model=small_scenario.delay_model,
            servers=ServerSet(
                nodes=reference.servers.nodes.copy(),
                capacities=reference.servers.capacities / 2,
            ),
        )
        assert np.array_equal(supplied.population.nodes, reference.population.nodes)
        assert np.array_equal(supplied.population.zones, reference.population.zones)
        assert np.array_equal(
            supplied.servers.capacities, reference.servers.capacities / 2
        )
