"""All-pairs delays and the Waxman component connector (hypothesis, derandomized).

* :meth:`Topology.shortest_path_latencies` equals SciPy's undirected Dijkstra
  bit for bit on generated simple graphs: trees, trees with extra cycle
  edges, dense graphs and sparse (often disconnected) ones, 1..60 nodes,
  latencies from 1e-3 to 1e3 including exact ties and equal-length
  alternative paths.  Disconnected graphs raise :class:`TopologyError`, and
  the relaxation itself still matches SciPy there (``inf`` between
  components), so every component is swept.  Leaf-heavy shapes (paths,
  stars, caterpillars, a cycle with hanging leaves, forests of them) check
  the leaves' shortcut relaxations in the hanging-forest passes.
* :meth:`Topology.is_connected` (a union-find over the edge list) agrees
  with SciPy's ``connected_components`` on edgeless graphs, forests, unions
  of 1..4 connected blocks and the graphs above, 1..60 nodes, with shuffled
  and flipped edge lists; and on the hierarchical generator's topologies
  with random edge subsets removed.
* Simple-graph validation: self-loops and duplicate undirected edges are
  rejected (SciPy's sparse constructor adds the latencies of duplicates).
* The Waxman generator's component connector returns exactly the edges of
  the original numpy union-find (``tests/reference/waxman_connect.py``),
  in the same order, on 2..60 points with many distance ties or coincident
  points, shuffled edge lists and edgeless (all-isolated) samples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path

from repro.topology.graph import Topology, TopologyError, _all_pairs_left_fold
from repro.topology.hierarchical import hierarchical_topology
from repro.topology.waxman import _connect_components, _pairwise_distances

from tests.reference.waxman_connect import connect_components as reference_connect

GRAPH_KINDS = ("tree", "tree+cycles", "dense", "sparse")
#: 0.1 + 0.2 != 0.3 in binary floating point; 1 + 2 == 3 exactly.
TIE_POOLS = ((0.1, 0.2, 0.3), (1.0, 2.0, 3.0), (1e-3, 1e3))


def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(derandomize=True, deadline=None, database=None, max_examples=max_examples)


def _shuffled_edges(pairs: set[tuple[int, int]], rng: np.random.Generator) -> np.ndarray:
    """The ``(u, v)`` pairs as an edge array in random order, half of them flipped."""
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges


@st.composite
def simple_graphs(draw) -> Topology:
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(GRAPH_KINDS))
    pool = draw(st.sampled_from(TIE_POOLS + (None,)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    pairs: set[tuple[int, int]] = set()
    if kind in ("tree", "tree+cycles"):
        pairs.update((int(rng.integers(v)), v) for v in range(1, n))
    if kind == "tree+cycles" and n > 2:
        for _ in range(int(rng.integers(1, n))):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            pairs.add((u, v))
    if kind in ("dense", "sparse"):
        p = rng.uniform(0.5, 1.0) if kind == "dense" else rng.uniform(0.0, 2.5 / n)
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        pairs.update(zip(iu[keep].tolist(), ju[keep].tolist()))

    edges = _shuffled_edges(pairs, rng)
    if pool is None:
        latencies = 10.0 ** rng.uniform(-3.0, 3.0, size=len(edges))
    else:
        latencies = rng.choice(np.array(pool), size=len(edges))
    return Topology(positions=np.zeros((n, 2)), edges=edges, latencies=latencies)


def _dijkstra(topology: Topology) -> np.ndarray:
    return shortest_path(topology.adjacency_matrix(), method="D", directed=False)


@pinned(400)
@given(topology=simple_graphs())
def test_relaxation_matches_scipy_dijkstra_bitwise(topology):
    expected = _dijkstra(topology)
    dist = _all_pairs_left_fold(topology.num_nodes, topology.edges, topology.latencies)
    assert np.array_equal(dist, expected)
    if np.isfinite(expected).all():
        latencies = topology.shortest_path_latencies()
        assert np.array_equal(latencies, expected)
        assert latencies.flags.c_contiguous
    else:
        with pytest.raises(TopologyError, match="disconnected"):
            topology.shortest_path_latencies()


def test_disconnected_components_each_swept():
    # Two triangles (2-cores) and a path, no edges between them.
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3], [6, 7]])
    latencies = np.array([1.0, 2.0, 4.0, 0.1, 0.2, 0.3, 5.0])
    topology = Topology(positions=np.zeros((8, 2)), edges=edges, latencies=latencies)
    dist = _all_pairs_left_fold(8, edges, latencies)
    assert np.array_equal(dist, _dijkstra(topology))
    # 0.1 + 0.2 rounds above the direct 0.3 edge.
    assert dist[0, 2] == 3.0 and dist[3, 5] == 0.3 and dist[6, 7] == 5.0
    with pytest.raises(TopologyError):
        topology.shortest_path_latencies()


#: Leaf-heavy shapes: most relaxations of the hanging forest are leaves'.
LEAF_KINDS = ("path", "star", "caterpillar", "cycle+leaves", "forest")


@st.composite
def leaf_heavy_graphs(draw) -> Topology:
    """Paths, stars, caterpillars, a cycle with hanging leaves, and forests of them."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(LEAF_KINDS))
    pool = draw(st.sampled_from(TIE_POOLS + (None,)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = rng.permutation(n).tolist()  # shape over relabelled nodes
    pairs: set[tuple[int, int]] = set()

    def link(a: int, b: int) -> None:
        pairs.add((min(a, b), max(a, b)))

    if kind == "path":
        for a, b in zip(nodes, nodes[1:]):
            link(a, b)
    elif kind == "star":
        for leaf in nodes[1:]:
            link(nodes[0], leaf)
    elif kind in ("caterpillar", "cycle+leaves"):
        spine = nodes[: max(1, int(rng.integers(1, n + 1)) // 3)]
        for a, b in zip(spine, spine[1:]):
            link(a, b)
        if kind == "cycle+leaves" and len(spine) > 2:
            link(spine[0], spine[-1])
        for leaf in nodes[len(spine):]:
            link(spine[int(rng.integers(len(spine)))], leaf)
    else:  # a forest of stars and paths: disconnected unless one tree
        for v in range(1, n):
            if rng.random() < 0.85:
                link(nodes[int(rng.integers(v))] if rng.random() < 0.5 else nodes[0], nodes[v])
    edges = _shuffled_edges(pairs, rng)
    if pool is None:
        latencies = 10.0 ** rng.uniform(-3.0, 3.0, size=len(edges))
    else:
        latencies = rng.choice(np.array(pool), size=len(edges))
    return Topology(positions=np.zeros((n, 2)), edges=edges, latencies=latencies)


@pinned(300)
@given(topology=leaf_heavy_graphs())
def test_leaf_heavy_graphs_match_scipy_dijkstra_bitwise(topology):
    expected = _dijkstra(topology)
    dist = _all_pairs_left_fold(topology.num_nodes, topology.edges, topology.latencies)
    assert np.array_equal(dist, expected)
    if np.isfinite(expected).all():
        assert np.array_equal(topology.shortest_path_latencies(), expected)
    else:
        with pytest.raises(TopologyError, match="disconnected"):
            topology.round_trip_delays()


@st.composite
def connectivity_graphs(draw) -> Topology:
    """Edgeless graphs, forests, unions of connected blocks and :func:`simple_graphs`."""
    kind = draw(st.sampled_from(("blocks", "forest", "simple", "edgeless")))
    if kind == "simple":
        return draw(simple_graphs())
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs: set[tuple[int, int]] = set()
    if kind == "forest":
        # Every node but 0 joins an earlier node's tree or starts its own.
        new_tree = rng.uniform(0.0, 0.3)
        pairs.update((int(rng.integers(v)), v) for v in range(1, n) if rng.random() >= new_tree)
    elif kind == "blocks":
        labels = rng.integers(draw(st.integers(1, 4)), size=n)
        for block in np.unique(labels):
            members = np.flatnonzero(labels == block).tolist()
            # A random spanning tree of the block, then up to |block| extra edges.
            tree = ((members[int(rng.integers(i))], members[i]) for i in range(1, len(members)))
            pairs.update(tree)
            if len(members) > 2:
                for _ in range(int(rng.integers(len(members)))):
                    u, v = sorted(rng.choice(members, size=2, replace=False).tolist())
                    pairs.add((u, v))
    edges = _shuffled_edges(pairs, rng)
    return Topology(positions=np.zeros((n, 2)), edges=edges, latencies=np.ones(len(edges)))


def _scipy_is_connected(topology: Topology) -> bool:
    num_components, _ = connected_components(topology.adjacency_matrix(), directed=False)
    return num_components == 1


@pinned(600)
@given(topology=connectivity_graphs())
def test_is_connected_matches_scipy(topology):
    assert topology.is_connected() == _scipy_is_connected(topology)


@pytest.mark.parametrize("seed", range(4))
def test_generated_topologies_is_connected_matches_scipy(seed):
    topology = hierarchical_topology(seed=seed)
    assert topology.is_connected() and _scipy_is_connected(topology)
    rng = np.random.default_rng(seed)
    for keep_share in (0.98, 0.9, 0.7):
        keep = rng.random(topology.num_edges) < keep_share
        sub = Topology(
            positions=topology.positions,
            edges=topology.edges[keep],
            latencies=topology.latencies[keep],
        )
        assert sub.is_connected() == _scipy_is_connected(sub)


@pytest.mark.parametrize(
    "edges, match",
    [
        # csr_matrix sums duplicates, which would make d(0, 1) == 10 here.
        ([[0, 1], [1, 0], [1, 2]], "duplicate"),
        ([[0, 1], [0, 1], [1, 2]], "duplicate"),
        ([[0, 1], [1, 1], [1, 2]], "self-loop"),
    ],
)
def test_non_simple_graph_rejected(edges, match):
    with pytest.raises(TopologyError, match=match):
        Topology(positions=np.zeros((3, 2)), edges=np.array(edges), latencies=[5.0, 5.0, 1.0])


#: Point layouts for the connector cases: uniform points, a small integer
#: grid (many equal distances) and a 2x2 grid (mostly coincident points, so
#: whole blocks of zero distances tie).
CONNECTOR_LAYOUTS = ("uniform", "grid", "coincident")


def _connector_positions(layout: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if layout == "grid":
        return rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    if layout == "coincident":
        return rng.integers(0, 2, size=(n, 2)).astype(np.float64)
    return rng.uniform(0.0, 100.0, size=(n, 2))


@st.composite
def connector_cases(draw):
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = _connector_positions(draw(st.sampled_from(CONNECTOR_LAYOUTS)), n, rng)
    p = draw(st.sampled_from((0.0, 0.03, 0.1, 0.3)))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    if draw(st.booleans()):
        # Shuffled edge order with flipped endpoints: the union-find roots,
        # and so the component labels, depend on both.
        flip = rng.random(len(edges)) < 0.5
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flip)]
        edges = [edges[i] for i in rng.permutation(len(edges))]
    return edges, _pairwise_distances(positions), n


@pytest.mark.parametrize("layout", CONNECTOR_LAYOUTS)
@pytest.mark.parametrize("n", [2, 25, 60])
def test_connect_components_all_isolated(layout, n):
    # No sampled edges: the connector alone builds a spanning tree.
    dist = _pairwise_distances(_connector_positions(layout, n, np.random.default_rng(n)))
    extra = _connect_components([], dist, n)
    assert len(extra) == n - 1
    assert extra == reference_connect([], dist, n)


@pinned(500)
@given(case=connector_cases())
def test_connect_components_matches_reference(case):
    edges, dist, n = case
    assert _connect_components(edges, dist, n) == reference_connect(edges, dist, n)
