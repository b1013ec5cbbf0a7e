"""Bandwidth / server-resource model.

The paper measures the server resource consumed by a client as network
bandwidth and estimates it with the client-server bandwidth model of
Pellegrino & Dovrolis ("Bandwidth requirement and state consistency in three
multiplayer game architectures"): every client sends its inputs to the server
at the frame rate, and the server sends each client the state updates of every
other client in the same zone.  Per client this gives

    RT(c) = f * s * 8 * (n_zone(c) + 1)   bits/s

(upstream inputs + downstream updates about the ``n_zone(c)`` avatars in the
zone including the client's own echo), so a zone's total server bandwidth
grows quadratically with its population — exactly the behaviour the paper
relies on ("the bandwidth requirement in client-server architectures increases
quadratically with the total number of clients that are interacting with each
other").

Contact-server forwarding doubles a client's footprint: when the contact
server differs from the target server, all traffic traverses the contact
server in both directions, i.e. ``RC(c) = 2 * RT(c)`` (and ``RC(c) = 0`` when
the servers coincide), matching Section 2.1.

Paper defaults: frame rate 25 messages/s, message size 100 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["BandwidthModel", "DEFAULT_FRAME_RATE", "DEFAULT_MESSAGE_BYTES"]

#: Paper default: each client sends 25 input messages per second.
DEFAULT_FRAME_RATE = 25.0
#: Paper default: each input / update message is 100 bytes.
DEFAULT_MESSAGE_BYTES = 100.0


@dataclass(frozen=True)
class BandwidthModel:
    """Quadratic client-server bandwidth model.

    Attributes
    ----------
    frame_rate:
        Input / update sending frequency per client (messages per second).
    message_bytes:
        Size of one input or update message in bytes.
    """

    frame_rate: float = DEFAULT_FRAME_RATE
    message_bytes: float = DEFAULT_MESSAGE_BYTES

    def __post_init__(self) -> None:
        check_positive(self.frame_rate, "frame_rate")
        check_positive(self.message_bytes, "message_bytes")

    # ------------------------------------------------------------------ #
    @property
    def stream_bps(self) -> float:
        """Bandwidth of a single client→server or server→client update stream."""
        return self.frame_rate * self.message_bytes * 8.0

    def client_target_demands(
        self, client_zones: np.ndarray, num_zones: int, out: np.ndarray = None
    ) -> np.ndarray:
        """Per-client bandwidth demand ``RT(c)`` on its target server, in bits/s.

        Parameters
        ----------
        client_zones:
            ``(num_clients,)`` zone index of each client.
        num_zones:
            Total number of zones in the virtual world.
        out:
            Optional ``(num_clients,)`` float64 buffer to write into (the
            epoch arena's recycled demand vector).  The ``out=`` path performs
            the same two float operations in the same order as the
            allocating path, so results are bit-identical.

        Returns
        -------
        numpy.ndarray
            ``(num_clients,)`` strictly positive per-client demand, where a
            client in a zone with ``p`` avatars requires
            ``stream_bps * (p + 1)`` bits/s.
        """
        client_zones = np.asarray(client_zones, dtype=np.int64)
        if client_zones.size and (client_zones.min() < 0 or client_zones.max() >= num_zones):
            raise ValueError("client_zones contains zone ids outside [0, num_zones)")
        populations = np.bincount(client_zones, minlength=num_zones)
        if out is None:
            return self.stream_bps * (populations[client_zones] + 1.0)
        np.add(populations[client_zones], 1.0, out=out)
        np.multiply(out, self.stream_bps, out=out)
        return out

    def zone_demands(self, client_zones: np.ndarray, num_zones: int) -> np.ndarray:
        """Total bandwidth demand of each zone on its target server, in bits/s.

        ``R(z) = sum over clients in z of RT(c) = stream_bps * p_z * (p_z + 1)``
        — the quadratic growth the zone-based architecture has to absorb.
        """
        client_zones = np.asarray(client_zones, dtype=np.int64)
        if client_zones.size and (client_zones.min() < 0 or client_zones.max() >= num_zones):
            raise ValueError("client_zones contains zone ids outside [0, num_zones)")
        populations = np.bincount(client_zones, minlength=num_zones).astype(np.float64)
        return self.stream_bps * populations * (populations + 1.0)

    def total_demand(self, client_zones: np.ndarray, num_zones: int) -> float:
        """System-wide target-server bandwidth demand in bits/s."""
        return float(self.zone_demands(client_zones, num_zones).sum())
