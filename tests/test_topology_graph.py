"""Tests for repro.topology.graph — the Topology container and delay computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.graph import MAX_RTT_MS, Topology, TopologyError


def line_topology(n: int = 4, latency: float = 10.0) -> Topology:
    """A simple path topology 0 - 1 - ... - (n-1) with equal edge latencies."""
    edges = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64)
    return Topology(
        positions=np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
        edges=edges,
        latencies=np.full(n - 1, latency),
        name="line",
    )


class TestConstruction:
    def test_basic_properties(self):
        topo = line_topology(5)
        assert topo.num_nodes == 5
        assert topo.num_edges == 4
        assert topo.num_domains == 1

    def test_bad_positions_shape(self):
        with pytest.raises(TopologyError):
            Topology(
                positions=np.zeros(3),
                edges=np.zeros((0, 2), dtype=int),
                latencies=np.zeros(0),
            )

    def test_latency_edge_mismatch(self):
        with pytest.raises(TopologyError):
            Topology(
                positions=np.zeros((3, 2)),
                edges=np.array([[0, 1]]),
                latencies=np.array([1.0, 2.0]),
            )

    def test_edge_out_of_range(self):
        with pytest.raises(TopologyError):
            Topology(
                positions=np.zeros((2, 2)),
                edges=np.array([[0, 5]]),
                latencies=np.array([1.0]),
            )

    def test_non_positive_latency_rejected(self):
        with pytest.raises(TopologyError):
            Topology(
                positions=np.zeros((2, 2)),
                edges=np.array([[0, 1]]),
                latencies=np.array([0.0]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_latency_rejected(self, bad):
        # NaN and +inf pass a ``<= 0`` check; they must not reach the
        # shortest-path kernels, which would report a disconnected graph.
        with pytest.raises(TopologyError, match="finite"):
            Topology(
                positions=np.zeros((3, 2)),
                edges=np.array([[0, 1], [1, 2]]),
                latencies=np.array([1.0, bad]),
            )

    def test_domain_length_mismatch(self):
        with pytest.raises(TopologyError):
            Topology(
                positions=np.zeros((3, 2)),
                edges=np.array([[0, 1]]),
                latencies=np.array([1.0]),
                node_domain=np.array([0, 1]),
            )

    def test_domain_count(self):
        topo = Topology(
            positions=np.zeros((4, 2)),
            edges=np.array([[0, 1], [1, 2], [2, 3]]),
            latencies=np.ones(3),
            node_domain=np.array([0, 0, 1, 1]),
        )
        assert topo.num_domains == 2
        np.testing.assert_array_equal(topo.domain_nodes(1), [2, 3])


class TestStructureQueries:
    def test_degree(self):
        topo = line_topology(4)
        np.testing.assert_array_equal(topo.degree(), [1, 2, 2, 1])

    def test_is_connected_true(self):
        assert line_topology(4).is_connected()

    def test_is_connected_false(self):
        topo = Topology(
            positions=np.zeros((4, 2)),
            edges=np.array([[0, 1]]),
            latencies=np.array([1.0]),
        )
        assert not topo.is_connected()

    def test_adjacency_matrix_symmetric(self):
        adj = line_topology(4).adjacency_matrix().toarray()
        np.testing.assert_allclose(adj, adj.T)
        assert adj[0, 1] == 10.0

    def test_domain_nodes_without_labels(self):
        topo = line_topology(3)
        np.testing.assert_array_equal(topo.domain_nodes(0), [0, 1, 2])
        with pytest.raises(ValueError):
            topo.domain_nodes(1)


class TestDelays:
    def test_shortest_path_latencies_on_line(self):
        topo = line_topology(4, latency=10.0)
        dist = topo.shortest_path_latencies()
        assert dist[0, 3] == pytest.approx(30.0)
        assert dist[1, 2] == pytest.approx(10.0)
        np.testing.assert_allclose(np.diag(dist), 0.0)

    def test_disconnected_raises(self):
        topo = Topology(
            positions=np.zeros((3, 2)),
            edges=np.array([[0, 1]]),
            latencies=np.array([1.0]),
        )
        with pytest.raises(TopologyError):
            topo.shortest_path_latencies()

    def test_one_way_distances_are_path_sums(self):
        topo = line_topology(3, latency=5.0)
        dist = topo.shortest_path_latencies()
        assert dist[0, 2] == 10.0
        np.testing.assert_array_equal(dist, dist.T)

    def test_round_trip_is_twice_one_way_rescaled(self):
        topo = line_topology(3, latency=5.0)
        rtt = topo.round_trip_delays()
        dist = topo.shortest_path_latencies()
        np.testing.assert_array_equal(rtt, 2.0 * dist * (MAX_RTT_MS / (2.0 * dist.max())))

    def test_round_trip_rescaled_to_max(self):
        topo = line_topology(5, latency=7.0)
        rtt = topo.round_trip_delays()
        assert rtt.max() == pytest.approx(MAX_RTT_MS)
        np.testing.assert_allclose(np.diag(rtt), 0.0)
        # Rescaling preserves delay ratios.
        assert rtt[0, 2] / rtt[0, 1] == pytest.approx(2.0)

    def test_round_trip_symmetry(self):
        topo = line_topology(6)
        rtt = topo.round_trip_delays()
        np.testing.assert_allclose(rtt, rtt.T)

    def test_single_node_round_trip_is_zero(self):
        topo = Topology(positions=np.zeros((1, 2)), edges=np.zeros((0, 2)), latencies=np.zeros(0))
        np.testing.assert_array_equal(topo.round_trip_delays(), [[0.0]])

    def test_disconnected_round_trip_raises(self):
        topo = Topology(
            positions=np.zeros((3, 2)),
            edges=np.array([[0, 1]]),
            latencies=np.array([1.0]),
        )
        with pytest.raises(TopologyError):
            topo.round_trip_delays()
