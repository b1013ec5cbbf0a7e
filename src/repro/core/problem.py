"""Problem definition for the client assignment problem (CAP).

A :class:`CAPInstance` is the numerical view of a DVE scenario that the
assignment algorithms consume (Definitions 2.1-2.3 of the paper):

* ``client_server_delays`` — round-trip delay ``d(c_j, s_i)`` between every
  client and every server (ms),
* ``server_server_delays`` — round-trip delay ``d(s_l, s_k)`` over the
  well-provisioned inter-server mesh (ms, zero diagonal),
* ``client_zones`` — the zone each client's avatar occupies,
* ``client_demands`` — per-client bandwidth demand ``RT(c_j)`` on its target
  server (bits/s),
* ``server_capacities`` — per-server bandwidth capacities ``C(s_i)`` (bits/s),
* ``delay_bound`` — the interactivity bound ``D`` (ms).

Instances are decoupled from :class:`~repro.world.scenario.DVEScenario` so
that algorithms can be run on *estimated* delays (Table 4's King / IDMaps
error models) while their results are evaluated on the true delays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.topology.delay_backends import CompactDelayMatrix
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.world.scenario import DVEScenario

__all__ = ["CAPInstance"]


@dataclass(frozen=True)
class CAPInstance:
    """An instance of the client assignment problem.

    All arrays are validated and cast on construction; the instance is
    immutable (algorithms never modify it).
    """

    client_server_delays: np.ndarray
    server_server_delays: np.ndarray
    client_zones: np.ndarray
    client_demands: np.ndarray
    server_capacities: np.ndarray
    delay_bound: float
    num_zones: int

    def __post_init__(self) -> None:
        compact = isinstance(self.client_server_delays, CompactDelayMatrix)
        if not compact:
            d_cs = np.asarray(self.client_server_delays, dtype=np.float64)
            object.__setattr__(self, "client_server_delays", d_cs)
            if d_cs.ndim != 2:
                raise ValueError(
                    f"client_server_delays must be 2-D, got shape {d_cs.shape}"
                )
        d_ss = np.asarray(self.server_server_delays, dtype=np.float64)
        zones = np.asarray(self.client_zones, dtype=np.int64)
        demands = np.asarray(self.client_demands, dtype=np.float64)
        capacities = np.asarray(self.server_capacities, dtype=np.float64)
        object.__setattr__(self, "server_server_delays", d_ss)
        object.__setattr__(self, "client_zones", zones)
        object.__setattr__(self, "client_demands", demands)
        object.__setattr__(self, "server_capacities", capacities)

        k, m = self.client_server_delays.shape
        if d_ss.shape != (m, m):
            raise ValueError(
                f"server_server_delays must be ({m}, {m}), got {d_ss.shape}"
            )
        if zones.shape != (k,):
            raise ValueError(f"client_zones must have shape ({k},), got {zones.shape}")
        if demands.shape != (k,):
            raise ValueError(f"client_demands must have shape ({k},), got {demands.shape}")
        if capacities.shape != (m,):
            raise ValueError(f"server_capacities must have shape ({m},), got {capacities.shape}")
        check_positive(self.delay_bound, "delay_bound")
        if self.num_zones < 1:
            raise ValueError("num_zones must be >= 1")
        if zones.size and (zones.min() < 0 or zones.max() >= self.num_zones):
            raise ValueError("client_zones contains zone ids outside [0, num_zones)")
        # Compact matrices guarantee non-negativity by construction (they
        # gather from a validated node→server table); only dense inputs need
        # the O(k·m) scan.
        if (not compact and (d_cs < 0).any()) or (d_ss < 0).any():
            raise ValueError("delays must be non-negative")
        if demands.size and (demands <= 0).any():
            raise ValueError("client demands must be strictly positive (RT(c) > 0)")
        if (capacities <= 0).any():
            raise ValueError("server capacities must be strictly positive")
        if compact and self.client_server_delays.num_zones != self.num_zones:
            raise ValueError(
                "the compact delay matrix was built for "
                f"{self.client_server_delays.num_zones} zones, instance has {self.num_zones}"
            )
        # The compact matrix's own zones decide which servers each client
        # reaches and feed its cost table, so they must be the instance's.
        if compact and not (
            zones is self.client_server_delays.client_zones
            or np.array_equal(zones, self.client_server_delays.client_zones)
        ):
            raise ValueError("client_zones must match the compact delay matrix's client zones")

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def num_clients(self) -> int:
        """Number of clients ``k``."""
        return int(self.client_server_delays.shape[0])

    @property
    def num_servers(self) -> int:
        """Number of servers ``m``."""
        return int(self.client_server_delays.shape[1])

    # ------------------------------------------------------------------ #
    # Delay access — works for dense ndarrays and compact delay matrices
    # ------------------------------------------------------------------ #
    @property
    def has_dense_delays(self) -> bool:
        """True when ``client_server_delays`` is a real ndarray.

        Compact instances (the ``"sparse"`` delay backend) carry a
        :class:`~repro.topology.delay_backends.CompactDelayMatrix` instead;
        algorithms that genuinely need the dense matrix must go through
        :meth:`dense_client_server_delays` (and accept the O(k·m) cost).
        """
        return not isinstance(self.client_server_delays, CompactDelayMatrix)

    def delay_rows(self, clients: Union[int, np.ndarray]) -> np.ndarray:
        """Delay rows — ``client_server_delays[clients]`` for either storage."""
        if self.has_dense_delays:
            return self.client_server_delays[clients]
        return self.client_server_delays.rows(clients)

    def delay_pairs(
        self, clients: Union[int, np.ndarray], servers: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Elementwise delays — ``client_server_delays[clients, servers]``."""
        if self.has_dense_delays:
            return self.client_server_delays[clients, servers]
        return self.client_server_delays.pairs(clients, servers)

    def delays_to(self, servers: np.ndarray) -> np.ndarray:
        """Each client's delay to its own server ``servers[c]``, shape ``(k,)``.

        ``delay_pairs(np.arange(k), servers)`` as a fresh array; a compact
        matrix gathers it without copying its per-client index arrays.
        """
        if self.has_dense_delays:
            return self.client_server_delays[np.arange(self.num_clients), servers]
        return self.client_server_delays.delays_to(servers)

    def dense_client_server_delays(self) -> np.ndarray:
        """The full dense delay matrix, materialising a compact one (O(k·m))."""
        if self.has_dense_delays:
            return self.client_server_delays
        return self.client_server_delays.toarray()

    # ------------------------------------------------------------------ #
    # Derived quantities (cached)
    # ------------------------------------------------------------------ #
    def zone_demands(self) -> np.ndarray:
        """Per-zone bandwidth demand ``R(z_j) = sum_{c in z_j} RT(c)`` (bits/s).

        Computed once and cached (the instance is immutable); the returned
        array is marked read-only because every caller shares it.
        """
        cached = self.__dict__.get("_zone_demands_cache")
        if cached is None:
            cached = np.zeros(self.num_zones, dtype=np.float64)
            if self.num_clients:
                np.add.at(cached, self.client_zones, self.client_demands)
            cached.flags.writeable = False
            object.__setattr__(self, "_zone_demands_cache", cached)
        return cached

    def zone_populations(self) -> np.ndarray:
        """Number of clients in each zone (cached, read-only)."""
        cached = self.__dict__.get("_zone_populations_cache")
        if cached is None:
            if self.num_clients == 0:
                cached = np.zeros(self.num_zones, dtype=np.int64)
            else:
                cached = np.bincount(self.client_zones, minlength=self.num_zones).astype(np.int64)
            cached.flags.writeable = False
            object.__setattr__(self, "_zone_populations_cache", cached)
        return cached

    def total_demand(self) -> float:
        """Total target-server demand (bits/s)."""
        return float(self.client_demands.sum())

    def total_capacity(self) -> float:
        """Total server capacity (bits/s)."""
        return float(self.server_capacities.sum())

    # ------------------------------------------------------------------ #
    # Construction / transformation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scenario(
        cls,
        scenario: "DVEScenario",
        delay_bound: Optional[float] = None,
    ) -> "CAPInstance":
        """Build an instance from a :class:`~repro.world.scenario.DVEScenario`."""
        return cls(
            client_server_delays=scenario.client_server_delays,
            server_server_delays=scenario.server_server_delays,
            client_zones=scenario.population.zones,
            client_demands=scenario.client_demands,
            server_capacities=scenario.servers.capacities,
            delay_bound=float(
                scenario.delay_bound_ms if delay_bound is None else delay_bound
            ),
            num_zones=scenario.num_zones,
        )

    def mirrors_arrays_of(self, scenario: "DVEScenario") -> bool:
        """True when every array of this instance *is* the scenario's array.

        :meth:`from_scenario` shares the scenario's arrays (no copies are
        taken for correctly-typed inputs), and the delta transformations
        preserve that sharing, so a simulation state that only ever advanced
        through the supported paths satisfies this check — which is what
        licenses :meth:`from_scenario_unchecked` on the *next* delta.
        """
        return (
            self.client_server_delays is scenario.client_server_delays
            and self.server_server_delays is scenario.server_server_delays
            and self.client_zones is scenario.population.zones
            and self.client_demands is scenario.client_demands
            and self.server_capacities is scenario.servers.capacities
            and self.delay_bound == float(scenario.delay_bound_ms)
            and self.num_zones == scenario.num_zones
        )

    @classmethod
    def from_scenario_unchecked(cls, scenario: "DVEScenario") -> "CAPInstance":
        """Zero-copy instance over a scenario's arrays, skipping validation.

        Fast path for the delta pipeline: when the previous epoch's instance
        :meth:`mirrors_arrays_of` the previous scenario, a scenario produced
        by :meth:`~repro.world.scenario.DVEScenario.apply_churn_delta` /
        :meth:`~repro.world.scenario.DVEScenario.apply_server_delta` contains
        only arrays that were carried over from validated state or validated
        by the scenario delta layer itself — re-validating (or re-gathering)
        them here would repeat checks those arrays already passed.  Callers
        that cannot guarantee the invariant must use :meth:`from_scenario`.
        """
        return cls._from_validated_arrays(
            client_server_delays=scenario.client_server_delays,
            server_server_delays=scenario.server_server_delays,
            client_zones=scenario.population.zones,
            client_demands=scenario.client_demands,
            server_capacities=scenario.servers.capacities,
            delay_bound=float(scenario.delay_bound_ms),
            num_zones=scenario.num_zones,
        )

    @classmethod
    def _from_validated_arrays(
        cls,
        client_server_delays: np.ndarray,
        server_server_delays: np.ndarray,
        client_zones: np.ndarray,
        client_demands: np.ndarray,
        server_capacities: np.ndarray,
        delay_bound: float,
        num_zones: int,
    ) -> "CAPInstance":
        """Construct without re-running ``__post_init__``.

        Internal fast path for :meth:`from_scenario_unchecked` and
        :meth:`apply_delta`: the caller guarantees the arrays already have the
        right dtypes, shapes and value ranges (either carried over from a
        validated instance or validated as a delta).
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "client_server_delays", client_server_delays)
        object.__setattr__(instance, "server_server_delays", server_server_delays)
        object.__setattr__(instance, "client_zones", client_zones)
        object.__setattr__(instance, "client_demands", client_demands)
        object.__setattr__(instance, "server_capacities", server_capacities)
        object.__setattr__(instance, "delay_bound", delay_bound)
        object.__setattr__(instance, "num_zones", num_zones)
        return instance

    # Kept, client-only, because the ledger's span tracer (bench/trace.py)
    # wraps ``CAPInstance.apply_delta`` by name; the engine itself advances
    # through the scenario delta layer and from_scenario_unchecked.
    def apply_delta(
        self,
        old_to_new: np.ndarray,
        join_delays: np.ndarray,
        client_zones: np.ndarray,
        client_demands: np.ndarray,
    ) -> "CAPInstance":
        """Post-churn instance from a client churn delta, validating only the delta.

        Surviving clients' delay rows are sliced out of this instance through
        ``old_to_new`` (``-1`` marks leavers; survivors keep their original
        relative order) and the joining clients' rows are appended after them,
        exactly the layout :func:`repro.dynamics.events.apply_churn` produces.

        The server-side arrays, the delay bound and the zone count carry over
        *by identity*: a client churn batch cannot touch the fleet.  The
        carried arrays were validated when this instance was built, so the
        only checks here are O(churn × servers) on the appended rows plus
        cheap O(clients) scans of the new zone / demand vectors (demands can
        change for every client because they depend on zone crowding).

        Parameters
        ----------
        old_to_new:
            ``(self.num_clients,)`` map from pre-churn to post-churn client
            index, ``-1`` for clients that left.
        join_delays:
            ``(num_joins, num_servers)`` delay rows of the joining clients.
        client_zones / client_demands:
            Full post-churn zone and demand vectors.
        """
        if not self.has_dense_delays:
            raise TypeError(
                "apply_delta needs dense delay rows; compact instances advance "
                "through the scenario delta layer (CompactDelayMatrix.with_clients) "
                "and CAPInstance.from_scenario"
            )
        old_to_new = np.asarray(old_to_new, dtype=np.int64)
        join_delays = np.atleast_2d(np.asarray(join_delays, dtype=np.float64))
        client_zones = np.asarray(client_zones, dtype=np.int64)
        client_demands = np.asarray(client_demands, dtype=np.float64)

        if old_to_new.shape != (self.num_clients,):
            raise ValueError(
                f"old_to_new must have shape ({self.num_clients},), got {old_to_new.shape}"
            )
        num_joins = 0 if join_delays.size == 0 else join_delays.shape[0]
        if num_joins and join_delays.shape[1] != self.num_servers:
            raise ValueError(
                f"join_delays must have {self.num_servers} columns, got {join_delays.shape[1]}"
            )
        if num_joins and (join_delays < 0).any():
            raise ValueError("delays must be non-negative")

        survivors_old = np.flatnonzero(old_to_new >= 0)
        num_new = survivors_old.size + num_joins
        if client_zones.shape != (num_new,):
            raise ValueError(f"client_zones must have shape ({num_new},), got {client_zones.shape}")
        if client_demands.shape != (num_new,):
            raise ValueError(
                f"client_demands must have shape ({num_new},), got {client_demands.shape}"
            )
        if client_zones.size and (client_zones.min() < 0 or client_zones.max() >= self.num_zones):
            raise ValueError("client_zones contains zone ids outside [0, num_zones)")
        if client_demands.size and (client_demands <= 0).any():
            raise ValueError("client demands must be strictly positive (RT(c) > 0)")
        if not np.array_equal(old_to_new[survivors_old], np.arange(survivors_old.size)):
            raise ValueError(
                "old_to_new must map survivors to 0..num_survivors-1 in their original "
                "relative order (the layout apply_churn produces)"
            )

        delays = np.empty((num_new, self.num_servers), dtype=np.float64)
        delays[: survivors_old.size] = self.client_server_delays[survivors_old]
        if num_joins:
            delays[survivors_old.size:] = join_delays

        return CAPInstance._from_validated_arrays(
            client_server_delays=delays,
            server_server_delays=self.server_server_delays,
            client_zones=client_zones,
            client_demands=client_demands,
            server_capacities=self.server_capacities,
            delay_bound=self.delay_bound,
            num_zones=self.num_zones,
        )

    def with_delays(
        self,
        client_server_delays: Optional[np.ndarray] = None,
        server_server_delays: Optional[np.ndarray] = None,
    ) -> "CAPInstance":
        """Return a copy of this instance with substituted delay matrices.

        Used by the measurement-error experiments: the algorithms see the
        *estimated* delays, evaluation uses the original instance.
        """
        return replace(
            self,
            client_server_delays=(
                self.client_server_delays
                if client_server_delays is None
                else np.asarray(client_server_delays, dtype=np.float64)
            ),
            server_server_delays=(
                self.server_server_delays
                if server_server_delays is None
                else np.asarray(server_server_delays, dtype=np.float64)
            ),
        )
