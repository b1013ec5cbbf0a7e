"""Round-trip delay model derived from a topology.

The assignment algorithms never look at the graph itself; they only consume
three arrays:

* ``client_server`` — the round-trip delay between every client and every
  server (``num_clients × num_servers``), read from the node→server columns
  of the RTT matrix
  (:func:`~repro.topology.delay_backends.node_server_table`),
* ``server_server`` — the round-trip delay over the well-provisioned
  inter-server mesh (``num_servers × num_servers``), and
* the delay bound ``D``.

:class:`DelayModel` computes the all-pairs node RTT matrix once (scaled so the
maximum RTT equals the paper's :data:`MAX_RTT_MS`), then slices it per
placement.  The inter-server mesh uses latencies discounted to
:data:`SERVER_MESH_FACTOR` of the underlying path RTTs, exactly as in the paper
("we set the network latency between any two geographically distributed
servers to 50 % of the actual latency values obtained from the topology
generator").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.topology.graph import MAX_RTT_MS, Topology

__all__ = ["DelayModel", "MAX_RTT_MS", "SERVER_MESH_FACTOR"]

#: Paper Section 4.1: inter-server latencies are 50 % of the topology latencies.
SERVER_MESH_FACTOR = 0.5


@dataclass
class DelayModel:
    """All-pairs round-trip delays for a topology, with a server-mesh discount.

    Parameters
    ----------
    topology:
        The underlying network topology.
    """

    topology: Topology
    _rtt: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    @property
    def rtt(self) -> np.ndarray:
        """Cached all-pairs node round-trip delay matrix (milliseconds)."""
        cached = self._rtt
        if cached is None:
            cached = self.topology.round_trip_delays()
            self._rtt = cached
        return cached

    @property
    def num_nodes(self) -> int:
        """Number of topology nodes."""
        return self.topology.num_nodes

    # ------------------------------------------------------------------ #
    def server_server_delays(self, server_nodes: np.ndarray) -> np.ndarray:
        """Round-trip delays over the inter-server mesh (discounted).

        The diagonal is exactly zero: forwarding through "the same server"
        costs nothing, matching Definition 2.1's convention ``d(s_l, s_k) = 0``
        when the contact and target server coincide.
        """
        server_nodes = self._check_nodes(server_nodes, "server_nodes")
        mesh = self.rtt[np.ix_(server_nodes, server_nodes)] * SERVER_MESH_FACTOR
        np.fill_diagonal(mesh, 0.0)
        return mesh

    # ------------------------------------------------------------------ #
    def _check_nodes(self, nodes: np.ndarray, name: str) -> np.ndarray:
        arr = np.asarray(nodes, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array of node indices, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_nodes):
            raise ValueError(
                f"{name} contains node indices outside [0, {self.num_nodes - 1}]"
            )
        return arr
