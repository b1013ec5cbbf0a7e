"""DVE scenario assembly: configuration → fully materialised simulation state.

A :class:`DVEConfig` captures every knob of the paper's Section 4.1 setup (the
``<m>s-<n>z-<k>c-<P>cp`` notation plus delay bound, correlation, distributions
and bandwidth-model parameters).  :func:`build_scenario` expands a config into
a :class:`DVEScenario`: topology, delay model, placed servers with capacities,
the client population, per-client bandwidth demands, and the two delay
matrices that the assignment algorithms consume.

Scenarios are immutable snapshots; the dynamics engine produces new
scenarios from old ones via :meth:`DVEScenario.apply_churn_delta` (delta
update that reuses the surviving clients' delay rows) when clients join, leave
or move.  :meth:`DVEScenario.with_population` rebuilds the derived arrays from
scratch and is the reference the delta update is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.topology.brite import BriteConfig, generate_topology
from repro.topology.delay_backends import (
    DEFAULT_DELAY_BACKEND,
    DEFAULT_SPARSE_TOP_K,
    DELAY_BACKENDS,
    CompactDelayMatrix,
    node_server_table,
    sparse_delay_matrix,
)
from repro.topology.delays import (
    DEFAULT_MAX_RTT_MS,
    DEFAULT_SERVER_MESH_FACTOR,
    DelayModel,
)
from repro.topology.graph import Topology
from repro.topology.placement import place_servers
from repro.utils.arena import EpochArena
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.utils.validation import check_positive, check_probability
from repro.world.bandwidth import (
    DEFAULT_FRAME_RATE,
    DEFAULT_MESSAGE_BYTES,
    BandwidthModel,
)
from repro.world.clients import ClientPopulation
from repro.world.distributions import DistributionSpec, sample_client_nodes, sample_client_zones
from repro.world.servers import MBPS, ServerSet, allocate_capacities
from repro.world.zones import VirtualWorld

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.dynamics.events import ChurnResult
    from repro.dynamics.infrastructure import ServerChurnResult

__all__ = ["DVEConfig", "DVEScenario", "build_scenario"]


@dataclass(frozen=True)
class DVEConfig:
    """Declarative description of a DVE simulation scenario.

    The defaults reproduce the paper's default configuration:
    20 servers, 80 zones, 1000 clients, 500 Mbps total capacity, minimum server
    capacity 10 Mbps, delay bound 250 ms, correlation 0.5, uniform client
    distributions, 25 msg/s × 100 B bandwidth model, 500-node BRITE-like
    hierarchical topology with 500 ms maximum RTT and a 50 %-latency
    inter-server mesh.
    """

    num_servers: int = 20
    num_zones: int = 80
    num_clients: int = 1000
    total_capacity_mbps: float = 500.0
    min_server_capacity_mbps: float = 10.0
    delay_bound_ms: float = 250.0
    correlation: float = 0.5
    physical_distribution: str = "uniform"
    virtual_distribution: str = "uniform"
    hot_zone_factor: float = 10.0
    hot_zone_fraction: float = 0.1
    physical_hotspots: int = 10
    physical_hotspot_fraction: float = 0.7
    frame_rate: float = DEFAULT_FRAME_RATE
    message_bytes: float = DEFAULT_MESSAGE_BYTES
    capacity_scheme: str = "random"
    max_rtt_ms: float = DEFAULT_MAX_RTT_MS
    server_mesh_factor: float = DEFAULT_SERVER_MESH_FACTOR
    topology: BriteConfig = field(default_factory=BriteConfig)
    delay_backend: str = DEFAULT_DELAY_BACKEND
    sparse_top_k: int = DEFAULT_SPARSE_TOP_K

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if self.num_zones < 1:
            raise ValueError("num_zones must be >= 1")
        if self.num_clients < 0:
            raise ValueError("num_clients must be >= 0")
        check_positive(self.total_capacity_mbps, "total_capacity_mbps")
        check_positive(self.delay_bound_ms, "delay_bound_ms")
        check_probability(self.correlation, "correlation")
        if self.delay_backend not in DELAY_BACKENDS:
            raise ValueError(
                f"unknown delay backend {self.delay_backend!r}; "
                f"expected one of {DELAY_BACKENDS}"
            )
        if self.sparse_top_k < 1:
            raise ValueError("sparse_top_k must be >= 1")

    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """The paper's configuration notation, e.g. ``"20s-80z-1000c-500cp"``."""
        cap = self.total_capacity_mbps
        cap_str = f"{int(cap)}" if float(cap).is_integer() else f"{cap:g}"
        return f"{self.num_servers}s-{self.num_zones}z-{self.num_clients}c-{cap_str}cp"

    @property
    def distribution_spec(self) -> DistributionSpec:
        """The distribution spec implied by this config."""
        return DistributionSpec(
            physical=self.physical_distribution,
            virtual=self.virtual_distribution,
            correlation=self.correlation,
            hot_zone_factor=self.hot_zone_factor,
            hot_zone_fraction=self.hot_zone_fraction,
            physical_hotspots=self.physical_hotspots,
            physical_hotspot_fraction=self.physical_hotspot_fraction,
        )

    @property
    def bandwidth_model(self) -> BandwidthModel:
        """The bandwidth model implied by this config."""
        return BandwidthModel(frame_rate=self.frame_rate, message_bytes=self.message_bytes)

    def with_updates(self, **kwargs) -> "DVEConfig":
        """Return a copy of this config with some fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DVEScenario:
    """A fully materialised DVE instance, ready for assignment algorithms.

    Attributes
    ----------
    config:
        The generating configuration.
    topology / delay_model:
        The network substrate and its delay matrices.
    servers:
        Server nodes and capacities.
    world:
        The zone-partitioned virtual world.
    population:
        Client physical nodes and avatar zones.
    client_server_delays:
        ``(num_clients, num_servers)`` RTT matrix (ms) — a dense ndarray for
        the ``"dense"`` delay backend, a
        :class:`~repro.topology.delay_backends.CompactDelayMatrix` (same
        virtual shape, O(nodes·servers + clients) state) for ``"sparse"``.
    server_server_delays:
        ``(num_servers, num_servers)`` inter-server mesh RTT matrix (ms).
    client_demands:
        ``(num_clients,)`` per-client target-server bandwidth demand (bits/s).
    """

    config: DVEConfig
    topology: Topology
    delay_model: DelayModel
    servers: ServerSet
    world: VirtualWorld
    population: ClientPopulation
    client_server_delays: np.ndarray
    server_server_delays: np.ndarray
    client_demands: np.ndarray

    # ------------------------------------------------------------------ #
    @property
    def has_dense_delays(self) -> bool:
        """True when ``client_server_delays`` is a real dense ndarray.

        Scenarios built with the ``"sparse"`` delay backend carry a
        :class:`~repro.topology.delay_backends.CompactDelayMatrix` instead —
        O(nodes·servers + clients) state rather than O(k·m).
        """
        return not isinstance(self.client_server_delays, CompactDelayMatrix)

    @property
    def num_servers(self) -> int:
        """Number of servers."""
        return self.servers.num_servers

    @property
    def num_zones(self) -> int:
        """Number of zones."""
        return self.world.num_zones

    @property
    def num_clients(self) -> int:
        """Number of clients."""
        return self.population.num_clients

    @property
    def delay_bound_ms(self) -> float:
        """DVE interactivity delay bound D in milliseconds."""
        return self.config.delay_bound_ms

    def total_demand(self) -> float:
        """Total target-server bandwidth demand of the system (bits/s)."""
        return float(self.client_demands.sum())

    def demand_to_capacity_ratio(self) -> float:
        """Total demand divided by total capacity (a rough load factor)."""
        return self.total_demand() / self.servers.total_capacity

    # ------------------------------------------------------------------ #
    def with_population(self, population: ClientPopulation) -> "DVEScenario":
        """Return a new scenario for a different client population snapshot.

        Client-server delays and per-client demands are recomputed; topology,
        servers and configuration are shared (they are immutable).
        """
        if population.zones.size and population.zones.max() >= self.num_zones:
            raise ValueError("population refers to zones outside this scenario's world")
        if self.has_dense_delays:
            delays = self.delay_model.client_server_delays(population.nodes, self.servers.nodes)
        else:
            # Compact path: the node→server table and candidate sets carry
            # over by reference; only the O(k) index arrays change.
            delays = self.client_server_delays.with_clients(population.nodes, population.zones)
        demands = self.config.bandwidth_model.client_target_demands(
            population.zones, self.num_zones
        )
        return DVEScenario(
            config=self.config,
            topology=self.topology,
            delay_model=self.delay_model,
            servers=self.servers,
            world=self.world,
            population=population,
            client_server_delays=delays,
            server_server_delays=self.server_server_delays,
            client_demands=demands,
        )

    def apply_churn_delta(
        self, churn: "ChurnResult", arena: Optional[EpochArena] = None
    ) -> "DVEScenario":
        """Delta version of :meth:`with_population` for a churn batch.

        Instead of recomputing the full client×server delay matrix, the delay
        rows of surviving clients are carried over through the churn's
        ``old_to_new`` index map and only the *joining* clients' rows are
        gathered from the delay model.  Movers keep their rows untouched (a
        zone move changes the virtual location, not the physical node), and
        per-client demands are recomputed from the new zone populations —
        demands depend on how crowded each zone is, so they can change for
        every client, but that is one :func:`numpy.bincount` away.

        The result is bit-identical to
        ``self.with_population(churn.population)``: both paths gather the same
        float64 entries from the same cached all-pairs RTT matrix.

        The new delay matrix and demand vector are acquired from ``arena``'s
        recycled buffers (the engine double-buffers: the previous epoch's
        matrix stays live until the state has advanced past it, then goes
        back to the pool).  A caller that passes no arena gets a private one,
        so the arrays are simply its own.
        """
        arena = arena or EpochArena()
        population = churn.population
        if churn.old_to_new.shape[0] != self.num_clients:
            raise ValueError(
                f"churn was generated against a population of "
                f"{churn.old_to_new.shape[0]} clients, scenario has {self.num_clients}"
            )
        if population.zones.size and population.zones.max() >= self.num_zones:
            raise ValueError("population refers to zones outside this scenario's world")

        if self.has_dense_delays:
            delays = arena.acquire((population.num_clients, self.num_servers), dtype=np.float64)
            survivors_old = churn.survivors_old
            if survivors_old is None:
                survivors_old = np.flatnonzero(churn.old_to_new >= 0)
            # apply_churn numbers survivors 0..k-1 in original order, so
            # old_to_new restricted to survivors IS arange(k) and the survivor
            # scatter is really a contiguous row gather — np.take with
            # ``out=`` writes the same float64 values into the same rows
            # without materialising the gathered block first.  mode="clip"
            # skips numpy's bounce buffer (mode="raise" stages the gather in a
            # temporary); indices come from flatnonzero over old_to_new, so
            # they are in range and clipping never fires.
            np.take(
                self.client_server_delays,
                survivors_old,
                axis=0,
                out=delays[: survivors_old.size],
                mode="clip",
            )
            if churn.new_client_indices.size:
                join_nodes = population.nodes[churn.new_client_indices]
                delays[churn.new_client_indices] = self.delay_model.client_server_delays(
                    join_nodes, self.servers.nodes
                )
        else:
            # Compact path: delays are derived from the per-client node
            # indices, so the "delta" is the O(k) index swap itself — churn
            # epochs never densify, whatever the batch size.  The churn map
            # and its movers move GreZ's cost table along, updated in
            # O(churn × K); a result without movers starts a fresh table.
            delays = self.client_server_delays.with_clients(
                population.nodes, population.zones, churn.old_to_new, churn.movers_old
            )
        demands = self.config.bandwidth_model.client_target_demands(
            population.zones,
            self.num_zones,
            out=arena.acquire((population.num_clients,), dtype=np.float64),
        )
        return DVEScenario(
            config=self.config,
            topology=self.topology,
            delay_model=self.delay_model,
            servers=self.servers,
            world=self.world,
            population=population,
            client_server_delays=delays,
            server_server_delays=self.server_server_delays,
            client_demands=demands,
        )

    def with_servers(self, servers: ServerSet) -> "DVEScenario":
        """Return a new scenario for a different server fleet snapshot.

        The full client×server delay matrix and the inter-server mesh are
        recomputed from the delay model; population, topology and
        configuration are shared.  This is the executable specification that
        :meth:`apply_server_delta` must match bit-for-bit.
        """
        if servers.nodes.size and servers.nodes.max() >= self.topology.num_nodes:
            raise ValueError("servers refer to nodes outside this scenario's topology")
        if self.has_dense_delays:
            delays = self.delay_model.client_server_delays(self.population.nodes, servers.nodes)
        else:
            # Compact path: rebuild the O(nodes·m) node→server table (and the
            # per-zone candidate sets) — independent of the client count.
            delays = self.client_server_delays.with_servers(
                servers.nodes, node_server_table(self.delay_model, servers.nodes)
            )
        return DVEScenario(
            config=self.config,
            topology=self.topology,
            delay_model=self.delay_model,
            servers=servers,
            world=self.world,
            population=self.population,
            client_server_delays=delays,
            server_server_delays=self.delay_model.server_server_delays(servers.nodes),
            client_demands=self.client_demands,
        )

    def with_server_capacities(self, capacities: np.ndarray) -> "DVEScenario":
        """Return a new scenario whose fleet has different capacities only.

        The server *index space* is unchanged — same nodes, same order — so
        every delay matrix, the population and the demands carry over by
        identity (no gather, no copy): this is the O(num_servers) path for
        capacity-only fleet changes (drift batches, federation capacity
        re-slices), where :meth:`apply_server_delta` would re-gather the full
        client×server matrix just to reproduce it.
        """
        return DVEScenario(
            config=self.config,
            topology=self.topology,
            delay_model=self.delay_model,
            servers=ServerSet(nodes=self.servers.nodes, capacities=capacities),
            world=self.world,
            population=self.population,
            client_server_delays=self.client_server_delays,
            server_server_delays=self.server_server_delays,
            client_demands=self.client_demands,
        )

    def apply_server_delta(self, server_churn: "ServerChurnResult") -> "DVEScenario":
        """Delta version of :meth:`with_servers` for an infrastructure churn batch.

        Surviving servers' client-delay *columns* are carried over through the
        churn's ``old_to_new`` map and only the joining servers' columns are
        gathered from the delay model; the inter-server mesh is regathered in
        full (it is ``m × m`` — negligible next to the client matrix).
        Capacity drift lives entirely in the new :class:`ServerSet`, so
        demands and population carry over untouched.

        The result is bit-identical to ``self.with_servers(server_churn.servers)``:
        both paths gather the same float64 entries from the same cached
        all-pairs RTT matrix.
        """
        servers = server_churn.servers
        if server_churn.old_to_new.shape[0] != self.num_servers:
            raise ValueError(
                f"server churn was generated against a fleet of "
                f"{server_churn.old_to_new.shape[0]} servers, scenario has {self.num_servers}"
            )
        if servers.nodes.size and servers.nodes.max() >= self.topology.num_nodes:
            raise ValueError("servers refer to nodes outside this scenario's topology")

        if not self.has_dense_delays:
            # Compact path: the full node→server rebuild already costs only
            # O(nodes·m), so the column-delta optimisation has nothing to
            # save.
            return self.with_servers(servers)

        delays = np.empty((self.num_clients, servers.num_servers), dtype=np.float64)
        survivors_old = np.flatnonzero(server_churn.old_to_new >= 0)
        delays[:, server_churn.old_to_new[survivors_old]] = self.client_server_delays[
            :, survivors_old
        ]
        if server_churn.new_server_indices.size:
            join_nodes = servers.nodes[server_churn.new_server_indices]
            delays[:, server_churn.new_server_indices] = self.delay_model.client_server_delays(
                self.population.nodes, join_nodes
            )
        return DVEScenario(
            config=self.config,
            topology=self.topology,
            delay_model=self.delay_model,
            servers=servers,
            world=self.world,
            population=self.population,
            client_server_delays=delays,
            server_server_delays=self.delay_model.server_server_delays(servers.nodes),
            client_demands=self.client_demands,
        )

    def summary(self) -> dict:
        """Descriptive statistics used by the CLI and reports."""
        return {
            "label": self.config.label,
            "servers": self.num_servers,
            "zones": self.num_zones,
            "clients": self.num_clients,
            "total_capacity_mbps": self.servers.total_capacity_mbps,
            "total_demand_mbps": self.total_demand() / MBPS,
            "load_factor": self.demand_to_capacity_ratio(),
            "delay_bound_ms": self.delay_bound_ms,
            "correlation": self.config.correlation,
            "topology": self.topology.name,
        }


def build_scenario(
    config: DVEConfig | None = None,
    seed: SeedLike = None,
    topology: Optional[Topology] = None,
    delay_model: Optional[DelayModel] = None,
    servers: Optional[ServerSet] = None,
) -> DVEScenario:
    """Materialise a :class:`DVEScenario` from a configuration.

    Parameters
    ----------
    config:
        Scenario configuration (paper defaults when omitted).
    seed:
        Master seed; sub-streams for topology generation, server placement,
        capacity allocation, client placement and zone sampling are derived
        from it deterministically.
    topology / delay_model:
        Optionally reuse an existing topology (and its expensive all-pairs
        delay matrix) across scenarios — the experiment runner does this when
        averaging over many simulation runs on the same substrate.
    servers:
        Optionally supply the server fleet instead of placing and sizing one
        from the config (requires ``topology``).  The federation layer uses
        this to hand every shard the same fleet nodes with per-shard capacity
        slices; ``config.num_servers`` / capacity knobs are ignored then.
        The client-side RNG sub-streams are unaffected: the placement and
        capacity streams are spawned (to keep the stream layout identical to
        a config-built scenario) but never drawn from.
    """
    config = config or DVEConfig()
    rng = as_generator(seed)
    (
        topo_rng,
        server_rng,
        capacity_rng,
        client_node_rng,
        client_zone_rng,
    ) = spawn_generators(rng, 5)

    if topology is None:
        if servers is not None:
            raise ValueError("supplying servers requires supplying their topology too")
        topology = generate_topology(config.topology, seed=topo_rng)
    if delay_model is None:
        delay_model = DelayModel(
            topology,
            max_rtt_ms=config.max_rtt_ms,
            server_mesh_factor=config.server_mesh_factor,
        )
    elif delay_model.topology is not topology:
        raise ValueError("delay_model must be built from the supplied topology")

    if servers is None:
        server_nodes = place_servers(topology, config.num_servers, seed=server_rng)
        capacities = allocate_capacities(
            config.num_servers,
            config.total_capacity_mbps,
            min_capacity_mbps=config.min_server_capacity_mbps,
            scheme=config.capacity_scheme,
            seed=capacity_rng,
        )
        servers = ServerSet(nodes=server_nodes, capacities=capacities)
    elif servers.nodes.size and servers.nodes.max() >= topology.num_nodes:
        raise ValueError("servers refer to nodes outside the supplied topology")

    spec = config.distribution_spec
    client_nodes = sample_client_nodes(topology, config.num_clients, spec, seed=client_node_rng)
    client_zones = sample_client_zones(
        topology, client_nodes, config.num_zones, spec, seed=client_zone_rng
    )
    population = ClientPopulation(nodes=client_nodes, zones=client_zones)

    world = VirtualWorld(num_zones=config.num_zones)
    if config.delay_backend == "dense":
        client_server_delays = delay_model.client_server_delays(client_nodes, servers.nodes)
    else:
        client_server_delays = sparse_delay_matrix(
            delay_model,
            client_nodes,
            client_zones,
            config.num_zones,
            servers.nodes,
            top_k=config.sparse_top_k,
        )
    server_server_delays = delay_model.server_server_delays(servers.nodes)
    client_demands = config.bandwidth_model.client_target_demands(client_zones, config.num_zones)

    return DVEScenario(
        config=config,
        topology=topology,
        delay_model=delay_model,
        servers=servers,
        world=world,
        population=population,
        client_server_delays=client_server_delays,
        server_server_delays=server_server_delays,
        client_demands=client_demands,
    )
