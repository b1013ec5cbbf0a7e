"""Round-trip delay model derived from a topology.

The assignment algorithms never look at the graph itself; they only consume
three arrays:

* ``client_server`` — the round-trip delay between every client and every
  server (``num_clients × num_servers``),
* ``server_server`` — the round-trip delay over the well-provisioned
  inter-server mesh (``num_servers × num_servers``), and
* the delay bound ``D``.

:class:`DelayModel` computes the all-pairs node RTT matrix once (scaled so the
maximum RTT equals the paper's 500 ms), then slices it per placement.  The
inter-server mesh uses latencies discounted to 50 % of the underlying path
RTTs, exactly as in the paper ("we set the network latency between any two
geographically distributed servers to 50 % of the actual latency values
obtained from the topology generator").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.topology.graph import Topology
from repro.utils.shm import SharedArray
from repro.utils.validation import check_in_range, check_positive

__all__ = ["DelayModel", "DEFAULT_MAX_RTT_MS", "DEFAULT_SERVER_MESH_FACTOR"]

#: Paper default: maximum RTT between any two topology nodes (ms).
DEFAULT_MAX_RTT_MS = 500.0
#: Paper default: inter-server latencies are 50 % of the topology latencies.
DEFAULT_SERVER_MESH_FACTOR = 0.5


@dataclass
class DelayModel:
    """All-pairs round-trip delays for a topology, with a server-mesh discount.

    Parameters
    ----------
    topology:
        The underlying network topology.
    max_rtt_ms:
        The all-pairs RTT matrix is rescaled so its maximum equals this value.
    server_mesh_factor:
        Multiplier applied to RTTs between *servers* to model the
        well-provisioned inter-server connections (0.5 in the paper).
    """

    topology: Topology
    max_rtt_ms: float = DEFAULT_MAX_RTT_MS
    server_mesh_factor: float = DEFAULT_SERVER_MESH_FACTOR
    _rtt: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _rtt_shared: Optional[SharedArray] = field(default=None, repr=False, compare=False)
    _rtt_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_positive(self.max_rtt_ms, "max_rtt_ms")
        check_in_range(self.server_mesh_factor, 0.0, 1.0, "server_mesh_factor")

    # ------------------------------------------------------------------ #
    @property
    def rtt(self) -> np.ndarray:
        """Cached all-pairs node round-trip delay matrix (milliseconds).

        Double-checked locking makes the lazy fill safe under thread
        fan-out: concurrent first readers compute at most once and every
        caller sees the same array object.
        """
        cached = self._rtt
        if cached is None:
            with self._rtt_lock:
                cached = self._rtt
                if cached is None:
                    cached = self.topology.round_trip_delays(max_rtt_ms=self.max_rtt_ms)
                    self._rtt = cached
        return cached

    # ------------------------------------------------------------------ #
    # Zero-copy process dispatch.  share_rtt() publishes the RTT matrix to a
    # POSIX shared-memory segment; while shared, pickling this model ships
    # the O(1) segment handle instead of the O(nodes²) matrix, and workers
    # rehydrate a read-only view of the same bits on unpickle.
    def share_rtt(self) -> SharedArray:
        """Publish the RTT matrix to shared memory (idempotent); return the handle."""
        rtt = self.rtt  # materialise outside the lock — the property takes it too
        with self._rtt_lock:
            if self._rtt_shared is None:
                self._rtt_shared = SharedArray(rtt)
            return self._rtt_shared

    def unshare_rtt(self) -> None:
        """Release the shared segment (no-op when not shared).

        Only call once every worker task that might attach has been drained;
        processes that already attached keep valid mappings.
        """
        with self._rtt_lock:
            shared, self._rtt_shared = self._rtt_shared, None
        if shared is not None:
            shared.release()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_rtt_lock", None)
        if state.get("_rtt_shared") is not None:
            state["_rtt"] = None  # ship the O(1) handle, not the matrix
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__dict__["_rtt_lock"] = threading.Lock()
        shared = self.__dict__.get("_rtt_shared")
        if shared is not None and self.__dict__.get("_rtt") is None:
            self.__dict__["_rtt"] = shared.as_array()

    @property
    def num_nodes(self) -> int:
        """Number of topology nodes."""
        return self.topology.num_nodes

    # ------------------------------------------------------------------ #
    def node_rtt(self, u: int, v: int) -> float:
        """RTT between two topology nodes in milliseconds."""
        return float(self.rtt[u, v])

    def client_server_delays(
        self, client_nodes: np.ndarray, server_nodes: np.ndarray, copy: bool = False
    ) -> np.ndarray:
        """Round-trip delays between clients and servers.

        Parameters
        ----------
        client_nodes:
            ``(num_clients,)`` topology node index of each client.
        server_nodes:
            ``(num_servers,)`` topology node index of each server.
        copy:
            By default the result is a fresh but *read-only* array (the
            advanced-indexing gather already allocates once; the historical
            unconditional ``.copy()`` briefly doubled the largest allocation
            in the scenario build path for no benefit).  Pass ``copy=True`` to get a
            writable matrix instead.

        Returns
        -------
        numpy.ndarray
            ``(num_clients, num_servers)`` matrix of RTTs in milliseconds.
        """
        client_nodes = self._check_nodes(client_nodes, "client_nodes")
        server_nodes = self._check_nodes(server_nodes, "server_nodes")
        delays = self.rtt[np.ix_(client_nodes, server_nodes)]
        if copy:
            return delays
        delays.flags.writeable = False
        return delays

    def server_server_delays(self, server_nodes: np.ndarray) -> np.ndarray:
        """Round-trip delays over the inter-server mesh (discounted).

        The diagonal is exactly zero: forwarding through "the same server"
        costs nothing, matching Definition 2.1's convention ``d(s_l, s_k) = 0``
        when the contact and target server coincide.
        """
        server_nodes = self._check_nodes(server_nodes, "server_nodes")
        mesh = self.rtt[np.ix_(server_nodes, server_nodes)] * self.server_mesh_factor
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
