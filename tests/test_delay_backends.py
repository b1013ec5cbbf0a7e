"""Tests for repro.topology.delay_backends and the compact-instance plumbing.

Covers the three contracts of the two delay backends:

* ``dense`` is the unrestricted matrix: every delay exact, equal to the RTT
  table's (clients × servers) gather (including the zero mesh diagonal and
  the delta paths);
* :class:`CompactDelayMatrix` gathers and zone fast paths agree with the
  densified matrix they virtualise; and
* ``sparse`` scenarios flow through the solvers, the churn engine and the
  CLI, producing capacity-feasible assignments whose pQoS is within a stated
  tolerance of dense on small worlds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.cli import build_parser
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.experiments.config import ExperimentConfig, apply_delay_backend, run
from repro.experiments.figure5 import FIGURE5
from repro.topology.delay_backends import (
    DEFAULT_SPARSE_TOP_K,
    DELAY_BACKENDS,
    SPARSE_FILL_DELAY_MS,
    CompactDelayMatrix,
    _candidates_from_anchors,
    _COUNT_CHUNK_CELLS,
    zone_anchor_nodes,
)
from repro.utils.chunks import row_chunks
from repro.world.scenario import DVEConfig, build_scenario

from tests.conftest import make_small_config, make_wide_sparse_instance
from tests.reference.anchor_candidates import candidates_per_zone_sort

#: pQoS tolerance of the sparse backend's candidate restriction vs dense on
#: the small world.
PQOS_TOLERANCE = 0.15


def _scenario(backend: str, **overrides):
    config = make_small_config(delay_backend=backend, **overrides)
    return build_scenario(config, seed=7)


@pytest.fixture(scope="module")
def dense_scenario():
    return _scenario("dense")


#: name -> top-k of the sparse scenarios.  The default covers all 5 servers
#: of the small world, so every pair keeps its exact delay; top-2 leaves 3
#: of each zone's 5 servers at the fill delay.
SPARSE_TOP_K = {"sparse": DEFAULT_SPARSE_TOP_K, "sparse-top2": 2}


@pytest.fixture(scope="module", params=sorted(SPARSE_TOP_K))
def sparse_scenario(request):
    return _scenario("sparse", sparse_top_k=SPARSE_TOP_K[request.param])


# ---------------------------------------------------------------------- #
# Dense: the unrestricted matrix holds every exact delay.
# ---------------------------------------------------------------------- #
class TestDenseBitIdentity:
    def test_matches_direct_construction(self, dense_scenario, small_scenario):
        # small_scenario is built with the default config (no backend field
        # set) and the same seed: every array must be bit-identical.
        np.testing.assert_array_equal(
            dense_scenario.client_server_delays.toarray(),
            small_scenario.client_server_delays.toarray(),
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
        expected = dense_scenario.delay_model.rtt[
            np.ix_(dense_scenario.population.nodes, dense_scenario.servers.nodes)
        ]
        np.testing.assert_array_equal(dense_scenario.client_server_delays.toarray(), expected)

    def test_dense_matrix_is_unrestricted(self, dense_scenario):
        delays = dense_scenario.client_server_delays
        assert isinstance(delays, CompactDelayMatrix)
        assert delays.is_unrestricted and delays.top_k is None
        assert delays.zone_anchors is None
        np.testing.assert_array_equal(
            delays.sorted_candidates(),
            np.tile(np.arange(delays.num_servers), (delays.num_zones, 1)),
        )
        assert delays.candidate_mask().all()
        assert CAPInstance.from_scenario(dense_scenario).client_server_delays is delays

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
            delta.client_server_delays.toarray(), rebuilt.client_server_delays.toarray()
        )

    def test_dense_accessors_mirror_fancy_indexing(self, small_instance):
        delays = small_instance.client_server_delays.toarray()
        clients = np.array([0, 3, 5])
        servers = np.array([1, 0, 2])
        np.testing.assert_array_equal(small_instance.delay_rows(clients), delays[clients])
        np.testing.assert_array_equal(
            small_instance.delay_pairs(clients, servers), delays[clients, servers]
        )
        every = np.arange(small_instance.num_clients) % small_instance.num_servers
        np.testing.assert_array_equal(
            small_instance.delays_to(every), delays[np.arange(delays.shape[0]), every]
        )


# ---------------------------------------------------------------------- #
# CompactDelayMatrix semantics vs its densified self.
# ---------------------------------------------------------------------- #
class TestCompactDelayMatrix:
    def test_type_and_shape(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        assert isinstance(delays, CompactDelayMatrix)
        assert delays.shape == (
            sparse_scenario.num_clients,
            sparse_scenario.num_servers,
        )
        assert not delays.is_unrestricted
        assert delays.top_k == sparse_scenario.config.sparse_top_k

    def test_rows_and_pairs_match_toarray(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        dense = delays.toarray()
        clients = np.array([0, 2, 9, 2])
        servers = np.array([1, 0, 3, 3])
        np.testing.assert_array_equal(delays.rows(clients), dense[clients])
        np.testing.assert_array_equal(delays.rows(3), dense[3])
        np.testing.assert_array_equal(delays.pairs(clients, servers), dense[clients, servers])
        np.testing.assert_array_equal(delays.pairs(5, 2), dense[5, 2])

    @pytest.mark.parametrize("bad", [-1, "m"])
    def test_pairs_rejects_out_of_range_server(self, sparse_scenario, bad):
        # Flat offsets cannot bounds-check each axis, so a stray server id
        # would silently read another client's cell without this check.
        delays = sparse_scenario.client_server_delays
        server = delays.num_servers if bad == "m" else bad
        with pytest.raises(IndexError):
            delays.pairs(np.array([0, 1]), np.array([0, server]))
        with pytest.raises(IndexError):
            delays.pairs(0, server)

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_with_clients_rejects_out_of_range_node(self, sparse_scenario, bad):
        # A negative node would wrap onto the table's last row; node n would
        # fail only at the first row gather.
        delays = sparse_scenario.client_server_delays
        num_nodes = delays.node_server.shape[0]
        node = num_nodes if bad == "n" else bad
        zones = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match=rf"\[0, {num_nodes}\)"):
            delays.with_clients(np.array([node, num_nodes - 1]), zones)

    def test_rows_are_writable_copies(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        row = delays.rows(0)
        row[0] = -1.0  # must not corrupt the shared node->server table
        assert delays.rows(0)[0] != -1.0

    def test_zone_over_bound_counts_match_scatter(self, sparse_scenario):
        instance = CAPInstance.from_scenario(sparse_scenario)
        delays = instance.client_server_delays
        dense = delays.toarray()
        expected = np.zeros((instance.num_zones, instance.num_servers))
        np.add.at(expected, instance.client_zones, (dense > instance.delay_bound))
        got = delays.zone_over_bound_counts(instance.delay_bound)
        np.testing.assert_array_equal(got, expected)

    def test_zone_direct_aggregates_match_scatter(self, sparse_scenario):
        instance = CAPInstance.from_scenario(sparse_scenario)
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

    def test_zone_delay_sums_match_scatter(self, sparse_scenario):
        instance = CAPInstance.from_scenario(sparse_scenario)
        delays = instance.client_server_delays
        dense = delays.toarray()
        expected = np.zeros((instance.num_zones, instance.num_servers))
        np.add.at(expected, instance.client_zones, dense)
        got = delays.zone_delay_sums(instance.client_zones, instance.num_zones)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-6)

    def test_with_clients_shares_table(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        perm = np.random.default_rng(2).permutation(delays.num_clients)
        moved = delays.with_clients(delays.client_nodes[perm], delays.client_zones[perm])
        assert moved.node_server is delays.node_server
        np.testing.assert_array_equal(moved.toarray(), delays.toarray()[perm])

    def test_nbytes_compact(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
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
        assert top_k == min(sparse_scenario.config.sparse_top_k, delays.num_servers)
        # Each zone's candidates are distinct.
        for candidates in delays.zone_candidates:
            assert np.unique(candidates).size == candidates.size

    def test_covering_top_k_is_exact(self, dense_scenario):
        # Top-k >= servers: every zone holds the whole fleet, so no pair
        # takes the fill delay and the matrix is the dense one.
        covering = _scenario("sparse", sparse_top_k=dense_scenario.num_servers)
        np.testing.assert_array_equal(
            covering.client_server_delays.toarray(),
            dense_scenario.client_server_delays.toarray(),
        )
        np.testing.assert_array_equal(
            covering.server_server_delays, dense_scenario.server_server_delays
        )

    def test_candidate_caches_fill_once_read_only(self, sparse_scenario):
        delays = sparse_scenario.client_server_delays
        for method in (delays.candidate_mask, delays.sorted_candidates):
            first = method()
            assert method() is first
            assert not first.flags.writeable


# ---------------------------------------------------------------------- #
# Candidate selection vs the frozen one-sort-per-zone oracle.
# ---------------------------------------------------------------------- #
@st.composite
def anchored_tables(draw):
    """A node→server table with delay ties and zone anchors that repeat."""
    num_nodes = draw(st.integers(1, 8))
    num_servers = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Few distinct delay levels, so rows tie within and across nodes.
    levels = draw(st.integers(1, 6))
    node_server = 10.0 * rng.integers(0, levels, size=(num_nodes, num_servers))
    if draw(st.booleans()):
        node_server[-1] = node_server[0]  # two nodes with identical rows
    anchors = rng.integers(0, num_nodes, draw(st.integers(0, 60)))
    top_k = draw(st.integers(1, num_servers + 2))
    return node_server, anchors, top_k


class TestAnchorCandidates:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(anchored_tables())
    def test_match_per_zone_sort(self, table):
        node_server, anchors, top_k = table
        got = _candidates_from_anchors(node_server, anchors, top_k)
        expected = candidates_per_zone_sort(node_server, anchors, top_k)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    def test_match_on_sparse_world(self, sparse_scenario):
        # The matrix stores each zone's candidate set row-sorted; the
        # selection order is pinned by test_match_per_zone_sort.
        delays = sparse_scenario.client_server_delays
        top_k = delays.zone_candidates.shape[1]
        expected = candidates_per_zone_sort(delays.node_server, delays.zone_anchors, top_k)
        np.testing.assert_array_equal(delays.zone_candidates, np.sort(expected, axis=1))
        assert delays.sorted_candidates() is delays.zone_candidates

    def test_empty_population_anchors_at_node_zero(self):
        empty = np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(zone_anchor_nodes(empty, empty, 4, 9), np.zeros(4))

    def test_empty_zones_anchor_at_global_mode(self):
        anchors = zone_anchor_nodes(np.array([2, 5, 5, 3]), np.array([0, 0, 2, 2]), 4, 9)
        np.testing.assert_array_equal(anchors, [2, 5, 3, 5])


# ---------------------------------------------------------------------- #
# Row-chunked passes on tables wider than one chunk.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["F", "C"])
def wide_sparse(request):
    return make_wide_sparse_instance(order=request.param)


class TestRowChunkedGathers:
    def test_spans_three_chunks(self, wide_sparse):
        top_k = wide_sparse.client_server_delays.zone_candidates.shape[1]
        assert len(list(row_chunks(wide_sparse.num_clients, top_k))) >= 3

    def test_candidate_rows_match_fancy_index(self, wide_sparse):
        delays = wide_sparse.client_server_delays
        # Shuffled, with repeats: chunk boundaries fall mid-zone.
        clients = np.random.default_rng(1).integers(0, delays.num_clients, delays.num_clients)
        got = delays.candidate_rows(clients)
        servers = delays.sorted_candidates()[delays.client_zones[clients]]
        np.testing.assert_array_equal(
            got, delays.node_server[delays.client_nodes[clients][:, None], servers]
        )

    def test_pairs_broadcast_like_fancy_index(self, wide_sparse):
        delays = wide_sparse.client_server_delays
        dense = delays.toarray()
        clients = np.arange(delays.num_clients)
        servers = np.arange(delays.num_servers)
        per_client = clients % delays.num_servers
        # The local-search zone move: a zone's members against one server.
        np.testing.assert_array_equal(delays.pairs(clients, 7), dense[clients, 7])
        np.testing.assert_array_equal(delays.pairs(clients, np.int64(7)), dense[clients, 7])
        np.testing.assert_array_equal(delays.pairs(3, servers), dense[3, servers])
        assert delays.pairs(np.int64(3), np.int64(5)) == dense[3, 5]
        np.testing.assert_array_equal(delays.pairs(clients, per_client), dense[clients, per_client])
        np.testing.assert_array_equal(
            delays.pairs(clients[:40, None], servers[None, :]),
            dense[clients[:40, None], servers[None, :]],
        )
        # The whole population, one server per client (GreC's direct delays).
        np.testing.assert_array_equal(delays.delays_to(per_client), dense[clients, per_client])
        np.testing.assert_array_equal(wide_sparse.delays_to(per_client), dense[clients, per_client])
        with pytest.raises(ValueError, match="shape"):
            delays.delays_to(per_client[:-1])
        with pytest.raises(IndexError, match="out of range"):
            delays.delays_to(per_client - 1)

    def test_zone_over_bound_counts_across_chunks(self):
        rng = np.random.default_rng(3)
        num_nodes, num_servers, num_zones, num_clients = 30, 12, 10_000, 20_000
        assert len(list(row_chunks(num_zones, num_nodes, _COUNT_CHUNK_CELLS))) >= 3
        node_server = 10.0 * rng.integers(1, 11, size=(num_nodes, num_servers))
        # Every zone also has a client on the first and on the last node,
        # the cells at each chunk's edges.
        zones = np.arange(num_zones)
        client_nodes = np.concatenate(
            [
                rng.integers(0, num_nodes, num_clients),
                np.zeros_like(zones),
                np.full_like(zones, num_nodes - 1),
            ]
        )
        client_zones = np.concatenate([rng.integers(0, num_zones, num_clients), zones, zones])
        anchors = zone_anchor_nodes(client_nodes, client_zones, num_zones, num_nodes)
        delays = CompactDelayMatrix(
            server_nodes=np.arange(num_servers),
            node_server=node_server,
            client_nodes=client_nodes,
            client_zones=client_zones,
            zone_candidates=_candidates_from_anchors(node_server, anchors, 4),
            zone_anchors=anchors,
            top_k=4,
        )
        bound = 55.0
        expected = np.zeros((num_zones, num_servers))
        np.add.at(expected, client_zones, delays.toarray() > bound)
        got = delays.zone_over_bound_counts(bound)
        assert got.flags.c_contiguous and got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------- #
# Solver equivalence and the candidate restriction's pQoS cost.
# ---------------------------------------------------------------------- #
class TestSolvers:
    def test_compact_solve_matches_densified(self, sparse_scenario):
        instance = CAPInstance.from_scenario(sparse_scenario)
        densified = instance.with_delays(
            client_server_delays=instance.client_server_delays.toarray()
        )
        compact = registry_solve(instance, "grez-grec", seed=3)
        dense = registry_solve(densified, "grez-grec", seed=3)
        np.testing.assert_array_equal(compact.zone_to_server, dense.zone_to_server)
        np.testing.assert_array_equal(compact.contact_of_client, dense.contact_of_client)

    @pytest.mark.parametrize("algorithm", ["grez-grec", "grez-virc", "nearest-server"])
    def test_feasible_and_close_to_dense(self, algorithm, dense_scenario, sparse_scenario):
        instance = CAPInstance.from_scenario(sparse_scenario)
        dense_instance = CAPInstance.from_scenario(dense_scenario)
        assignment = registry_solve(instance, algorithm, seed=3)
        baseline = registry_solve(dense_instance, algorithm, seed=3)
        if not baseline.capacity_exceeded:
            assert assignment.is_capacity_feasible(instance)
        # Evaluated on the true (dense) delays, the candidate-restricted
        # solve must stay within the stated tolerance of the dense solve.
        pqos_true = assignment.pqos(dense_instance)
        assert pqos_true >= baseline.pqos(dense_instance) - PQOS_TOLERANCE

    def test_warm_start_refine_runs_compact(self, sparse_scenario):
        from repro.core.local_search import warm_start_refine

        instance = CAPInstance.from_scenario(sparse_scenario)
        seeded = registry_solve(instance, "grez-grec", seed=3)
        result = warm_start_refine(instance, seeded)
        assert result.final_pqos >= result.initial_pqos - 1e-12
        assert result.assignment.pqos(instance) == pytest.approx(result.final_pqos)


# ---------------------------------------------------------------------- #
# Deltas, churn engine and server churn on compact scenarios.
# ---------------------------------------------------------------------- #
class TestCompactDeltas:
    def test_apply_delta_raises_on_compact(self, sparse_scenario):
        instance = CAPInstance.from_scenario(sparse_scenario)
        # A well-formed delta: only the compact guard can raise.
        old_to_new = np.full(instance.num_clients, -1)
        old_to_new[:5] = np.arange(5)
        with pytest.raises(TypeError, match="exact delay rows"):
            instance.apply_delta(
                old_to_new=old_to_new,
                join_delays=np.zeros((0, instance.num_servers)),
                client_zones=instance.client_zones[:5],
                client_demands=instance.client_demands[:5],
            )

    def test_instance_zones_must_be_the_matrix_zones(self, sparse_scenario):
        # The matrix's zones pick each client's candidates and feed GreZ's
        # cost table; an instance that disagrees would mix two populations.
        instance = CAPInstance.from_scenario(sparse_scenario)
        zones = instance.client_zones.copy()
        zones[0] = (zones[0] + 1) % instance.num_zones
        with pytest.raises(ValueError, match="client zones"):
            dataclasses.replace(instance, client_zones=zones)

    def test_engine_advance_matches_rebuild_oracle(self, sparse_scenario, advance_oracle_spy):
        simulator = ChurnSimulator(
            scenario=sparse_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=8, num_leaves=8, num_moves=8),
            seed=5,
        )
        assert len(simulator.run(3)) == 3
        assert advance_oracle_spy == [True, True, True]

    def test_engine_server_churn_stays_compact(self, sparse_scenario, advance_oracle_spy):
        simulator = ChurnSimulator(
            scenario=sparse_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1),
            seed=5,
        )
        session = simulator.session(2)
        while not session.done:
            for record in session.run_epoch():
                assert np.isfinite(record.pqos_after)
        delays = session.state.scenario.client_server_delays
        assert isinstance(delays, CompactDelayMatrix)
        assert delays.top_k == sparse_scenario.client_server_delays.top_k
        assert delays.zone_candidates.shape[1] == min(delays.top_k, delays.num_servers)
        assert advance_oracle_spy == [True, True]

    def test_with_servers_matches_fresh_build(self, sparse_scenario):
        scenario = sparse_scenario
        moved = scenario.with_servers(scenario.servers)
        old = scenario.client_server_delays
        new = moved.client_server_delays
        np.testing.assert_array_equal(new.toarray(), old.toarray())
        np.testing.assert_array_equal(moved.server_server_delays, scenario.server_server_delays)


# ---------------------------------------------------------------------- #
# Configuration plumbing: ExperimentConfig, apply_delay_backend, CLI.
# ---------------------------------------------------------------------- #
class TestConfigPlumbing:
    def test_experiment_config_validates(self):
        with pytest.raises(ValueError):
            ExperimentConfig(delay_backend="nope")

    def test_run_applies_backend_to_every_point_only_when_set(self):
        spec = dataclasses.replace(
            FIGURE5, labels=("4s-12z-150c-80cp",), sweep=(0.0, 1.0), algorithms=("grez-virc",)
        )
        for backend, expected in ((None, "dense"), ("sparse", "sparse")):
            result = run(spec, ExperimentConfig(num_runs=1, delay_backend=backend))
            assert [r.config.delay_backend for r in result.results.values()] == [expected] * 2

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

    def test_coords_backend_is_gone(self):
        # The approximate Vivaldi-coordinate backend was deleted: its name is
        # rejected like any unknown backend, and no config knob is left for it.
        assert DELAY_BACKENDS == ("dense", "sparse")
        with pytest.raises(ValueError):
            DVEConfig(delay_backend="coords")
        with pytest.raises(ValueError):
            ExperimentConfig(delay_backend="coords")
        with pytest.raises(TypeError):
            DVEConfig(coords_dim=6)

    @pytest.mark.parametrize("command", ["solve", "simulate", "federate", "loadgen", "experiment"])
    def test_cli_flag_parses(self, command):
        parser = build_parser()
        tail = ["table1"] if command == "experiment" else []
        args = parser.parse_args([command, *tail, "--delay-backend", "sparse"])
        assert args.delay_backend == "sparse"
        defaults = parser.parse_args([command, *tail])
        assert defaults.delay_backend is None

    def test_cli_flag_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "--delay-backend", "nope"])
