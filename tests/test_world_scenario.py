"""Tests for repro.world.scenario — configuration and scenario assembly."""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_small_config
from repro.topology.delays import MAX_RTT_MS
from repro.world.clients import ClientPopulation
from repro.world.scenario import DVEConfig, build_scenario


class TestDVEConfig:
    def test_paper_defaults(self):
        config = DVEConfig()
        assert config.num_servers == 20
        assert config.num_zones == 80
        assert config.num_clients == 1000
        assert config.total_capacity_mbps == 500.0
        assert config.delay_bound_ms == 250.0
        assert config.correlation == 0.5
        assert config.label == "20s-80z-1000c-500cp"

    def test_label_formatting(self):
        config = DVEConfig(num_servers=5, num_zones=15, num_clients=200, total_capacity_mbps=100)
        assert config.label == "5s-15z-200c-100cp"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            DVEConfig(num_servers=0)
        with pytest.raises(ValueError):
            DVEConfig(correlation=2.0)
        with pytest.raises(ValueError):
            DVEConfig(total_capacity_mbps=0)

    @pytest.mark.parametrize(
        "name",
        [
            "capacity_scheme",
            "frame_rate",
            "message_bytes",
            "hot_zone_factor",
            "hot_zone_fraction",
            "physical_hotspots",
            "physical_hotspot_fraction",
            "max_rtt_ms",
            "server_mesh_factor",
        ],
    )
    def test_fixed_world_parameters_are_not_options(self, name):
        # Section 4.1 values nothing varies are module constants (README table).
        with pytest.raises(TypeError):
            DVEConfig(**{name: 1.0})

    def test_with_updates(self):
        config = make_small_config()
        updated = config.with_updates(correlation=0.9, delay_bound_ms=200.0)
        assert updated.correlation == 0.9
        assert updated.delay_bound_ms == 200.0
        assert updated.num_servers == config.num_servers
        assert config.correlation == 0.5  # original unchanged

    def test_distribution_spec_propagation(self):
        config = make_small_config(virtual_distribution="clustered", correlation=0.3)
        spec = config.distribution_spec
        assert spec.virtual == "clustered"
        assert spec.correlation == 0.3


class TestBuildScenario:
    def test_dimensions(self, small_scenario, small_config):
        assert small_scenario.num_servers == small_config.num_servers
        assert small_scenario.num_zones == small_config.num_zones
        assert small_scenario.num_clients == small_config.num_clients
        assert small_scenario.client_server_delays.shape == (
            small_config.num_clients,
            small_config.num_servers,
        )
        assert small_scenario.server_server_delays.shape == (
            small_config.num_servers,
            small_config.num_servers,
        )

    def test_total_capacity_matches_config(self, small_scenario, small_config):
        assert small_scenario.servers.total_capacity_mbps == pytest.approx(
            small_config.total_capacity_mbps
        )

    def test_delays_non_negative_and_bounded(self, small_scenario, small_config):
        delays = small_scenario.client_server_delays.toarray()
        assert (delays >= 0).all()
        assert delays.max() <= MAX_RTT_MS + 1e-9

    def test_server_mesh_is_discounted(self, small_scenario):
        mesh = small_scenario.server_server_delays
        assert np.allclose(np.diag(mesh), 0.0)
        nodes = small_scenario.servers.nodes
        full = small_scenario.delay_model.rtt[np.ix_(nodes, nodes)]
        off = ~np.eye(len(nodes), dtype=bool)
        np.testing.assert_allclose(mesh[off], 0.5 * full[off])

    def test_reproducible_for_seed(self, small_config):
        a = build_scenario(small_config, seed=123)
        b = build_scenario(small_config, seed=123)
        np.testing.assert_array_equal(a.population.zones, b.population.zones)
        np.testing.assert_array_equal(a.servers.nodes, b.servers.nodes)
        np.testing.assert_allclose(
            a.client_server_delays.toarray(),
            b.client_server_delays.toarray(),
        )

    def test_supplied_substrate_matches_built_one(self, small_config, small_scenario):
        """Reusing a topology and delay model leaves the fleet and clients as
        if the scenario had built them itself."""
        reused = build_scenario(
            small_config,
            seed=7,
            topology=small_scenario.topology,
            delay_model=small_scenario.delay_model,
        )
        np.testing.assert_array_equal(reused.servers.capacities, small_scenario.servers.capacities)
        np.testing.assert_array_equal(reused.population.nodes, small_scenario.population.nodes)
        np.testing.assert_array_equal(reused.population.zones, small_scenario.population.zones)

    def test_different_seeds_differ(self, small_config):
        a = build_scenario(small_config, seed=1)
        b = build_scenario(small_config, seed=2)
        assert not np.array_equal(a.population.nodes, b.population.nodes)

    def test_shared_topology_reused(self, small_scenario, small_config):
        rebuilt = build_scenario(
            small_config,
            seed=99,
            topology=small_scenario.topology,
            delay_model=small_scenario.delay_model,
        )
        assert rebuilt.topology is small_scenario.topology
        assert rebuilt.delay_model is small_scenario.delay_model

    def test_mismatched_delay_model_rejected(self, small_scenario, small_config):
        other = build_scenario(small_config, seed=5)
        with pytest.raises(ValueError):
            build_scenario(
                small_config,
                seed=5,
                topology=other.topology,
                delay_model=small_scenario.delay_model,
            )

    def test_summary_keys(self, small_scenario):
        summary = small_scenario.summary()
        assert summary["servers"] == small_scenario.num_servers
        assert summary["label"] == small_scenario.config.label
        assert 0 < summary["load_factor"]


class TestWithPopulation:
    def test_population_swap_recomputes_delays_and_demands(self, small_scenario):
        population = ClientPopulation(
            nodes=small_scenario.population.nodes[:50],
            zones=small_scenario.population.zones[:50],
        )
        updated = small_scenario.with_population(population)
        assert updated.num_clients == 50
        assert updated.client_server_delays.shape == (50, small_scenario.num_servers)
        assert updated.topology is small_scenario.topology
        # Demands are recomputed for the smaller zone populations.
        assert updated.total_demand() < small_scenario.total_demand()

    def test_population_with_invalid_zone_rejected(self, small_scenario):
        population = ClientPopulation(
            nodes=np.array([0]), zones=np.array([small_scenario.num_zones + 3])
        )
        with pytest.raises(ValueError):
            small_scenario.with_population(population)
