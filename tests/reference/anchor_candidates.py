"""Test-only oracle: the sparse backend's per-zone candidate selection, one sort per zone.

A frozen copy of ``repro.topology.delay_backends._candidates_from_anchors``
as it stood before it learned to sort each *distinct* anchor node's delay
row once: here every zone gathers its anchor's row and stable-argsorts it
on its own, then takes the nearest half of its budget and a strided tail
comb rotated by the zone index.  ``tests/test_delay_backends.py`` checks
that the engine selects the same candidates, in the same order.
"""

from __future__ import annotations

import numpy as np


def candidates_per_zone_sort(
    node_server: np.ndarray, anchor_nodes: np.ndarray, top_k: int
) -> np.ndarray:
    """``(num_zones, K)`` candidate servers, one stable argsort per zone row."""
    num_servers = node_server.shape[1]
    top_k = min(int(top_k), num_servers)
    anchor_delays = node_server[anchor_nodes]
    order = np.argsort(anchor_delays, axis=1, kind="stable")
    near = (top_k + 1) // 2
    if near >= top_k or top_k == num_servers:
        picks = order[:, :top_k]
    else:
        far = top_k - near
        step = (num_servers - near) // far
        num_zones = order.shape[0]
        phases = (np.arange(num_zones) % step)[:, None]
        tail_ranks = near + np.arange(far)[None, :] * step + phases
        picks = np.concatenate(
            [order[:, :near], np.take_along_axis(order, tail_ranks, axis=1)], axis=1
        )
    return np.ascontiguousarray(picks, dtype=np.int64)
