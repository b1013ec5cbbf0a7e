"""Tests for repro.topology.delay_backends and the compact-instance plumbing.

Covers the three contracts of the pluggable delay backends:

* ``dense`` through the new abstraction is bit-identical to the historical
  construction (including the zero mesh diagonal and the delta fast paths);
* :class:`CompactDelayMatrix` gathers and zone fast paths agree with the
  densified matrix they virtualise; and
* ``coords`` / ``sparse`` scenarios flow through the solvers, the churn
  engine and the CLI, producing capacity-feasible assignments whose pQoS is
  within a stated tolerance of dense on small worlds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.cli import build_parser
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.experiments.config import ExperimentConfig, apply_delay_backend
from repro.topology.delay_backends import (
    DEFAULT_SPARSE_TOP_K,
    SPARSE_FILL_DELAY_MS,
    CompactDelayMatrix,
    make_delay_backend,
)
from repro.world.scenario import build_scenario

from tests.conftest import make_small_config

#: pQoS tolerance of the approximate backends vs dense on the small world.
PQOS_TOLERANCE = 0.15


def _scenario(backend: str, **overrides):
    config = make_small_config(delay_backend=backend, **overrides)
    return build_scenario(config, seed=7)


@pytest.fixture(scope="module")
def dense_scenario():
    return _scenario("dense")


@pytest.fixture(scope="module")
def coords_scenario():
    return _scenario("coords")


@pytest.fixture(scope="module")
def sparse_scenario():
    return _scenario("sparse")


# ---------------------------------------------------------------------- #
# Dense through the abstraction: the executable spec stays bit-identical.
# ---------------------------------------------------------------------- #
class TestDenseBitIdentity:
    def test_matches_direct_construction(self, dense_scenario, small_scenario):
        # small_scenario is built with the default config (no backend field
        # set) and the same seed: every array must be bit-identical.
        np.testing.assert_array_equal(
            dense_scenario.client_server_delays, small_scenario.client_server_delays
        )
        np.testing.assert_array_equal(
            dense_scenario.server_server_delays, small_scenario.server_server_delays
        )
        np.testing.assert_array_equal(
            dense_scenario.population.nodes, small_scenario.population.nodes
        )
        np.testing.assert_array_equal(
            dense_scenario.servers.capacities, small_scenario.servers.capacities
        )

    def test_zero_mesh_diagonal(self, dense_scenario):
        np.testing.assert_array_equal(np.diag(dense_scenario.server_server_delays), 0.0)

    def test_matches_delay_model_gather(self, dense_scenario):
        expected = dense_scenario.delay_model.client_server_delays(
            dense_scenario.population.nodes, dense_scenario.servers.nodes
        )
        np.testing.assert_array_equal(dense_scenario.client_server_delays, expected)

    def test_has_dense_delays(self, dense_scenario):
        assert dense_scenario.has_dense_delays
        assert CAPInstance.from_scenario(dense_scenario).has_dense_delays

    def test_delta_fast_path_identity(self, dense_scenario):
        from repro.dynamics.churn import generate_churn
        from repro.dynamics.events import apply_churn

        batch = generate_churn(
            dense_scenario, ChurnSpec(num_joins=10, num_leaves=10, num_moves=10), seed=5
        )
        churn = apply_churn(dense_scenario.population, batch)
        delta = dense_scenario.apply_churn_delta(churn)
        rebuilt = dense_scenario.with_population(churn.population)
        np.testing.assert_array_equal(
            delta.client_server_delays, rebuilt.client_server_delays
        )

    def test_dense_accessors_mirror_fancy_indexing(self, small_instance):
        delays = small_instance.client_server_delays
        clients = np.array([0, 3, 5])
        servers = np.array([1, 0, 2])
        np.testing.assert_array_equal(small_instance.delay_rows(clients), delays[clients])
        np.testing.assert_array_equal(
            small_instance.delay_pairs(clients, servers), delays[clients, servers]
        )
        np.testing.assert_array_equal(
            small_instance.dense_client_server_delays(), delays
        )


# ---------------------------------------------------------------------- #
# CompactDelayMatrix semantics vs its densified self.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["coords", "sparse"])
def compact_scenario(request, coords_scenario, sparse_scenario):
    return coords_scenario if request.param == "coords" else sparse_scenario


class TestCompactDelayMatrix:
    def test_type_and_shape(self, compact_scenario):
        delays = compact_scenario.client_server_delays
        assert isinstance(delays, CompactDelayMatrix)
        assert delays.shape == (
            compact_scenario.num_clients,
            compact_scenario.num_servers,
        )
        assert not compact_scenario.has_dense_delays

    def test_rows_and_pairs_match_toarray(self, compact_scenario):
        delays = compact_scenario.client_server_delays
        dense = delays.toarray()
        clients = np.array([0, 2, 9, 2])
        servers = np.array([1, 0, 3, 3])
        np.testing.assert_array_equal(delays.rows(clients), dense[clients])
        np.testing.assert_array_equal(delays.rows(3), dense[3])
        np.testing.assert_array_equal(
            delays.pairs(clients, servers), dense[clients, servers]
        )
        np.testing.assert_array_equal(delays.pairs(5, 2), dense[5, 2])

    @pytest.mark.parametrize("bad", [-1, "m"])
    def test_pairs_rejects_out_of_range_server(self, compact_scenario, bad):
        # Flat offsets cannot bounds-check each axis, so a stray server id
        # would silently read another client's cell without this check.
        delays = compact_scenario.client_server_delays
        server = delays.num_servers if bad == "m" else bad
        with pytest.raises(IndexError):
            delays.pairs(np.array([0, 1]), np.array([0, server]))
        with pytest.raises(IndexError):
            delays.pairs(0, server)

    def test_rows_are_writable_copies(self, compact_scenario):
        delays = compact_scenario.client_server_delays
        row = delays.rows(0)
        row[0] = -1.0  # must not corrupt the shared node->server table
        assert delays.rows(0)[0] != -1.0

    def test_zone_over_bound_counts_match_scatter(self, compact_scenario):
        instance = CAPInstance.from_scenario(compact_scenario)
        delays = instance.client_server_delays
        dense = delays.toarray()
        expected = np.zeros((instance.num_zones, instance.num_servers))
        np.add.at(expected, instance.client_zones, (dense > instance.delay_bound))
        got = delays.zone_over_bound_counts(
            instance.delay_bound, instance.client_zones, instance.num_zones
        )
        np.testing.assert_array_equal(got, expected)

    def test_zone_direct_aggregates_match_scatter(self, compact_scenario):
        instance = CAPInstance.from_scenario(compact_scenario)
        delays = instance.client_server_delays
        dense = delays.toarray()
        self_delays = np.diag(instance.server_server_delays)
        direct = dense + self_delays[None, :]
        bound = instance.delay_bound
        within_expected = np.zeros((instance.num_zones, instance.num_servers))
        excess_expected = np.zeros_like(within_expected)
        np.add.at(within_expected, instance.client_zones, (direct <= bound).astype(float))
        np.add.at(excess_expected, instance.client_zones, np.maximum(direct - bound, 0.0))
        within, excess = delays.zone_direct_aggregates(
            bound, instance.client_zones, instance.num_zones, self_delays
        )
        np.testing.assert_array_equal(within, within_expected)
        np.testing.assert_allclose(excess, excess_expected, rtol=1e-9, atol=1e-6)

    def test_zone_delay_sums_match_scatter(self, compact_scenario):
        instance = CAPInstance.from_scenario(compact_scenario)
        delays = instance.client_server_delays
        dense = delays.toarray()
        expected = np.zeros((instance.num_zones, instance.num_servers))
        np.add.at(expected, instance.client_zones, dense)
        got = delays.zone_delay_sums(instance.client_zones, instance.num_zones)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-6)

    def test_with_clients_shares_table(self, compact_scenario):
        delays = compact_scenario.client_server_delays
        perm = np.random.default_rng(2).permutation(delays.num_clients)
        zones = None
        if delays.zone_candidates is not None:
            zones = delays.client_zones[perm]
        moved = delays.with_clients(delays.client_nodes[perm], zones)
        assert moved.node_server is delays.node_server
        np.testing.assert_array_equal(moved.toarray(), delays.toarray()[perm])

    def test_nbytes_compact(self, compact_scenario):
        delays = compact_scenario.client_server_delays
        dense_bytes = delays.num_clients * delays.num_servers * 8
        assert delays.nbytes < dense_bytes + delays.node_server.nbytes


class TestSparseSemantics:
    def test_non_candidates_get_sentinel(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        dense = delays.toarray()
        allowed = np.zeros((delays.num_zones, delays.num_servers), dtype=bool)
        for zone, candidates in enumerate(delays.zone_candidates):
            allowed[zone, candidates] = True
        client_allowed = allowed[delays.client_zones]
        assert (dense[~client_allowed] == SPARSE_FILL_DELAY_MS).all()
        exact = delays.node_server[delays.client_nodes]
        np.testing.assert_array_equal(dense[client_allowed], exact[client_allowed])

    def test_candidate_sets_cover_fleet(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        top_k = delays.zone_candidates.shape[1]
        assert top_k == min(DEFAULT_SPARSE_TOP_K, delays.num_servers)
        # Each zone's candidates are distinct.
        for candidates in delays.zone_candidates:
            assert np.unique(candidates).size == candidates.size


# ---------------------------------------------------------------------- #
# Solver equivalence and approximation quality.
# ---------------------------------------------------------------------- #
class TestSolvers:
    def test_compact_solve_matches_densified(self, compact_scenario):
        instance = CAPInstance.from_scenario(compact_scenario)
        densified = instance.with_delays(
            client_server_delays=instance.client_server_delays.toarray()
        )
        compact = registry_solve(instance, "grez-grec", seed=3)
        dense = registry_solve(densified, "grez-grec", seed=3)
        np.testing.assert_array_equal(compact.zone_to_server, dense.zone_to_server)
        np.testing.assert_array_equal(compact.contact_of_client, dense.contact_of_client)

    @pytest.mark.parametrize("backend", ["coords", "sparse"])
    @pytest.mark.parametrize("algorithm", ["grez-grec", "grez-virc", "nearest-server"])
    def test_feasible_and_close_to_dense(
        self, backend, algorithm, dense_scenario, coords_scenario, sparse_scenario
    ):
        scenario = coords_scenario if backend == "coords" else sparse_scenario
        instance = CAPInstance.from_scenario(scenario)
        dense_instance = CAPInstance.from_scenario(dense_scenario)
        assignment = registry_solve(instance, algorithm, seed=3)
        baseline = registry_solve(dense_instance, algorithm, seed=3)
        if not baseline.capacity_exceeded:
            assert assignment.is_capacity_feasible(instance)
        # Evaluated on the true (dense) delays, the approximate backends must
        # stay within the stated tolerance of the dense solve.
        pqos_true = assignment.pqos(dense_instance)
        assert pqos_true >= baseline.pqos(dense_instance) - PQOS_TOLERANCE

    def test_warm_start_refine_runs_compact(self, compact_scenario):
        from repro.core.local_search import warm_start_refine

        instance = CAPInstance.from_scenario(compact_scenario)
        seeded = registry_solve(instance, "grez-grec", seed=3)
        result = warm_start_refine(instance, seeded)
        assert result.final_pqos >= result.initial_pqos - 1e-12
        assert result.assignment.pqos(instance) == pytest.approx(result.final_pqos)


# ---------------------------------------------------------------------- #
# Deltas, churn engine and server churn on compact scenarios.
# ---------------------------------------------------------------------- #
class TestCompactDeltas:
    def test_apply_delta_raises_on_compact(self, compact_scenario):
        instance = CAPInstance.from_scenario(compact_scenario)
        with pytest.raises(TypeError):
            instance.apply_delta(
                survivor_indices=np.arange(5),
                join_delays=np.zeros((0, instance.num_servers)),
                client_zones=instance.client_zones[:5],
                client_demands=instance.client_demands[:5],
            )

    def test_engine_delta_equals_rebuild(self, compact_scenario):
        records = {}
        for backend in ("delta", "rebuild"):
            simulator = ChurnSimulator(
                scenario=compact_scenario,
                algorithms=["grez-grec"],
                churn_spec=ChurnSpec(num_joins=8, num_leaves=8, num_moves=8),
                seed=5,
                backend=backend,
            )
            records[backend] = [record.row() for record in simulator.run(3)]
        assert records["delta"] == records["rebuild"]

    def test_engine_server_churn_stays_compact(self, compact_scenario):
        simulator = ChurnSimulator(
            scenario=compact_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1),
            seed=5,
        )
        session = simulator.session(2)
        while not session.done:
            for record in session.run_epoch():
                assert np.isfinite(record.pqos_after)
        assert not session.state.scenario.has_dense_delays

    def test_with_servers_matches_fresh_build(self, compact_scenario):
        scenario = compact_scenario
        moved = scenario.with_servers(scenario.servers)
        old = scenario.client_server_delays
        new = moved.client_server_delays
        np.testing.assert_array_equal(new.toarray(), old.toarray())
        np.testing.assert_array_equal(
            moved.server_server_delays, scenario.server_server_delays
        )


# ---------------------------------------------------------------------- #
# DelayModel.copy semantics (the double-allocation fix).
# ---------------------------------------------------------------------- #
class TestDelayModelCopy:
    def test_default_is_read_only(self, small_scenario):
        model = small_scenario.delay_model
        delays = model.client_server_delays(np.array([0, 1]), np.array([2, 3]))
        assert not delays.flags.writeable
        with pytest.raises(ValueError):
            delays[0, 0] = 1.0

    def test_copy_opt_in_is_writable(self, small_scenario):
        model = small_scenario.delay_model
        nodes = np.array([0, 1])
        servers = np.array([2, 3])
        frozen = model.client_server_delays(nodes, servers)
        writable = model.client_server_delays(nodes, servers, copy=True)
        assert writable.flags.writeable
        np.testing.assert_array_equal(writable, frozen)
        writable[0, 0] = -5.0  # private copy: the model's view is untouched
        assert frozen[0, 0] != -5.0


# ---------------------------------------------------------------------- #
# Configuration plumbing: ExperimentConfig, apply_delay_backend, CLI.
# ---------------------------------------------------------------------- #
class TestConfigPlumbing:
    def test_experiment_config_validates(self):
        with pytest.raises(ValueError):
            ExperimentConfig(delay_backend="nope")

    def test_run_kwargs_include_backend_only_when_set(self):
        assert "delay_backend" not in ExperimentConfig().run_kwargs()
        assert ExperimentConfig(delay_backend="coords").run_kwargs()[
            "delay_backend"
        ] == "coords"

    def test_apply_delay_backend(self, small_config):
        assert apply_delay_backend(small_config, None) is small_config
        updated = apply_delay_backend(small_config, "sparse")
        assert updated.delay_backend == "sparse"
        assert small_config.delay_backend == "dense"

    def test_dve_config_validates_backend(self):
        with pytest.raises(ValueError):
            make_small_config(delay_backend="nope")
        with pytest.raises(ValueError):
            make_small_config(delay_backend="sparse", sparse_top_k=0)
        with pytest.raises(ValueError):
            make_small_config(delay_backend="coords", coords_dim=0)

    def test_make_delay_backend_rejects_unknown(self, small_scenario):
        with pytest.raises(ValueError):
            make_delay_backend("nope", small_scenario.delay_model)

    @pytest.mark.parametrize("command", ["solve", "simulate", "federate", "experiment"])
    def test_cli_flag_parses(self, command):
        parser = build_parser()
        tail = ["table1"] if command == "experiment" else []
        args = parser.parse_args([command, *tail, "--delay-backend", "coords"])
        assert args.delay_backend == "coords"
        defaults = parser.parse_args([command, *tail])
        assert defaults.delay_backend is None

    def test_cli_flag_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "--delay-backend", "nope"])
