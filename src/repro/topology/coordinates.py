"""Vivaldi-style network coordinates fitted to a topology's RTT matrix.

Synthetic coordinate systems predict the round-trip delay between any two
nodes from O(n) state: every node gets a low-dimensional Euclidean position
plus a non-negative *height* (the height model absorbs the access-link cost
that violates the triangle inequality in real RTT data), and

``predicted_rtt(u, v) = ||x_u - x_v|| + h_u + h_v``   (0 when ``u == v``).

:func:`fit_network_coordinates` runs a deterministic, vectorised variant of
the Vivaldi spring relaxation against a full all-pairs RTT matrix: every
round moves each node along the sum of the spring forces exerted by *all*
other nodes (the classic algorithm samples neighbours; with the full matrix
in hand the exact gradient is cheaper than sampling well), with a decaying
step size so the embedding converges to a fixed point.  The fit is exact in
the sense that the same matrix and parameters always produce the same
coordinates — the internal RNG is seeded explicitly and never touches any
caller's stream.

The embedding is the state behind the ``"coords"`` delay backend
(:mod:`repro.topology.delay_backends`): O(n·dim) floats replace the O(n²)
RTT matrix, at the price of a bounded relative prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkCoordinates",
    "fit_network_coordinates",
    "DEFAULT_COORDS_DIM",
]

#: Default embedding dimension (Vivaldi's accuracy plateaus around 5-7).
DEFAULT_COORDS_DIM = 6

#: Spring-relaxation schedule: enough rounds for the step size to anneal.
_FIT_ROUNDS = 48
#: Initial fraction of the residual each round corrects.
_INITIAL_STEP = 0.25
#: Multiplicative step decay per round.
_STEP_DECAY = 0.94
#: Row-chunk size for the force computation (bounds the (chunk, n, dim) temp).
_CHUNK = 256
#: Guard against division by zero for coincident positions.
_EPS = 1e-9


@dataclass(frozen=True)
class NetworkCoordinates:
    """A fitted height-model embedding of topology nodes.

    Attributes
    ----------
    positions:
        ``(num_nodes, dim)`` Euclidean coordinates (read-only).
    heights:
        ``(num_nodes,)`` non-negative access-link heights (read-only).
    fit_rmse_ms:
        Root-mean-square prediction error over all fitted pairs (ms).
    fit_median_relative_error:
        Median of ``|predicted - actual| / actual`` over off-diagonal pairs.
    """

    positions: np.ndarray
    heights: np.ndarray
    fit_rmse_ms: float
    fit_median_relative_error: float

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.float64)
        heights = np.asarray(self.heights, dtype=np.float64)
        if positions.ndim != 2:
            raise ValueError(f"positions must be 2-D, got shape {positions.shape}")
        if heights.shape != (positions.shape[0],):
            raise ValueError(
                f"heights must have shape ({positions.shape[0]},), got {heights.shape}"
            )
        if heights.size and (heights < 0).any():
            raise ValueError("heights must be non-negative")
        positions = positions.copy()
        heights = heights.copy()
        positions.flags.writeable = False
        heights.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "heights", heights)

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of embedded nodes."""
        return int(self.positions.shape[0])

    @property
    def dim(self) -> int:
        """Embedding dimension (excluding the height component)."""
        return int(self.positions.shape[1])

    def predict_matrix(self, u_nodes: np.ndarray, v_nodes: np.ndarray) -> np.ndarray:
        """Predicted ``(len(u), len(v))`` RTT matrix between two node sets (ms)."""
        u_nodes = np.asarray(u_nodes, dtype=np.int64)
        v_nodes = np.asarray(v_nodes, dtype=np.int64)
        pu = self.positions[u_nodes]
        pv = self.positions[v_nodes]
        # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b, clipped against round-off.
        sq = (
            np.sum(pu * pu, axis=1)[:, None]
            + np.sum(pv * pv, axis=1)[None, :]
            - 2.0 * (pu @ pv.T)
        )
        dist = np.sqrt(np.maximum(sq, 0.0))
        predicted = dist + self.heights[u_nodes][:, None] + self.heights[v_nodes][None, :]
        return np.where(u_nodes[:, None] == v_nodes[None, :], 0.0, predicted)


def _force_pass(
    rtt: np.ndarray, positions: np.ndarray, heights: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """One full-gradient spring round; returns the updated (positions, heights)."""
    n = rtt.shape[0]
    new_positions = positions.copy()
    new_heights = heights.copy()
    for start in range(0, n, _CHUNK):
        rows = slice(start, min(start + _CHUNK, n))
        diff = positions[rows, None, :] - positions[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        predicted = dist + heights[rows, None] + heights[None, :]
        error = rtt[rows] - predicted  # positive → push apart / grow heights
        np.fill_diagonal(error[:, rows], 0.0)
        unit = diff / (dist + _EPS)[:, :, None]
        # Average force over neighbours keeps the step scale-free in n.
        new_positions[rows] += (step / n) * np.einsum("ij,ijk->ik", error, unit)
        new_heights[rows] += (step / n) * 0.5 * error.sum(axis=1)
    np.maximum(new_heights, 0.0, out=new_heights)
    return new_positions, new_heights


def fit_network_coordinates(
    rtt: np.ndarray,
    dim: int = DEFAULT_COORDS_DIM,
    num_rounds: int = _FIT_ROUNDS,
    seed: int = 0,
) -> NetworkCoordinates:
    """Fit a height-model embedding to a symmetric all-pairs RTT matrix.

    Parameters
    ----------
    rtt:
        ``(n, n)`` non-negative RTT matrix (ms) with a zero diagonal.
    dim:
        Embedding dimension.
    num_rounds:
        Spring-relaxation rounds (each visits every pair once).
    seed:
        Seed of the *internal* initialisation RNG.  The fit is deterministic
        in (rtt, dim, num_rounds, seed) and never consumes caller entropy.
    """
    rtt = np.asarray(rtt, dtype=np.float64)
    if rtt.ndim != 2 or rtt.shape[0] != rtt.shape[1]:
        raise ValueError(f"rtt must be a square matrix, got shape {rtt.shape}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    n = rtt.shape[0]
    if n == 0:
        return NetworkCoordinates(
            positions=np.zeros((0, dim)),
            heights=np.zeros(0),
            fit_rmse_ms=0.0,
            fit_median_relative_error=0.0,
        )

    rng = np.random.default_rng(seed)
    scale = float(rtt.max()) or 1.0
    positions = rng.normal(scale=0.1 * scale, size=(n, dim))
    # Start heights at half the per-node minimum off-diagonal RTT: the access
    # link is a lower bound on every path through the node.
    if n > 1:
        off = rtt + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        heights = 0.5 * off.min(axis=1)
        heights[~np.isfinite(heights)] = 0.0
    else:
        heights = np.zeros(n)

    step = _INITIAL_STEP
    for _ in range(num_rounds):
        positions, heights = _force_pass(rtt, positions, heights, step)
        step *= _STEP_DECAY

    coords = NetworkCoordinates(
        positions=positions,
        heights=heights,
        fit_rmse_ms=0.0,
        fit_median_relative_error=0.0,
    )
    predicted = coords.predict_matrix(np.arange(n), np.arange(n))
    error = predicted - rtt
    rmse = float(np.sqrt(np.mean(error * error)))
    mask = ~np.eye(n, dtype=bool)
    if mask.any() and (rtt[mask] > 0).any():
        positive = mask & (rtt > 0)
        med_rel = float(np.median(np.abs(error[positive]) / rtt[positive]))
    else:
        med_rel = 0.0
    object.__setattr__(coords, "fit_rmse_ms", rmse)
    object.__setattr__(coords, "fit_median_relative_error", med_rel)
    return coords
