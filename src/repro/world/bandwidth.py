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
"""

from __future__ import annotations

import numpy as np

__all__ = ["FRAME_RATE", "MESSAGE_BYTES", "STREAM_BPS", "client_target_demands"]

#: Paper Section 4.1: each client sends 25 input messages per second.
FRAME_RATE = 25.0
#: Paper Section 4.1: each input / update message is 100 bytes.
MESSAGE_BYTES = 100.0
#: Bandwidth of one client→server or server→client update stream: 20,000 b/s.
STREAM_BPS = FRAME_RATE * MESSAGE_BYTES * 8.0


def client_target_demands(
    client_zones: np.ndarray, num_zones: int, out: np.ndarray = None
) -> np.ndarray:
    """Per-client bandwidth demand ``RT(c)`` on its target server, in bits/s.

    Parameters
    ----------
    client_zones:
        ``(num_clients,)`` zone index of each client.
    num_zones:
        Total number of zones in the virtual world.
    out:
        Optional ``(num_clients,)`` float64 buffer to write into (the epoch
        arena's recycled demand vector).  The ``out=`` path performs the same
        two float operations in the same order as the allocating path, so
        results are bit-identical.

    Returns
    -------
    numpy.ndarray
        ``(num_clients,)`` strictly positive per-client demand, where a client
        in a zone with ``p`` avatars requires ``STREAM_BPS * (p + 1)`` bits/s.
    """
    client_zones = np.asarray(client_zones, dtype=np.int64)
    if client_zones.size and (client_zones.min() < 0 or client_zones.max() >= num_zones):
        raise ValueError("client_zones contains zone ids outside [0, num_zones)")
    populations = np.bincount(client_zones, minlength=num_zones)
    if out is None:
        return STREAM_BPS * (populations[client_zones] + 1.0)
    np.add(populations[client_zones], 1.0, out=out)
    np.multiply(out, STREAM_BPS, out=out)
    return out
