"""Max-regret greedy assignment machinery shared by GreZ and GreC.

Both greedy heuristics in the paper follow the same template, borrowed from
the classic greedy algorithms for the Generalized Assignment Problem (Romeijn
& Romero Morales):

1. For every item (zone in the IAP, client in the RAP) compute a desirability
   ``mu[i, j] = -cost[i, j]`` for placing item ``j`` on server ``i``.
2. Compute each item's *regret* ``rho_j`` — the gap between its best and
   second-best desirability — and order items by decreasing regret, so the
   items that lose the most by not getting their preferred server are placed
   first.
3. Walk the items in that order; give each one its most desirable server that
   still has enough residual capacity.

The paper's pseudocode (Figures 2 and 3) computes the regrets once up front;
:func:`max_regret_assign` follows that faithfully, and also offers a
``recompute`` mode — the dynamic-regret strengthening used by the ablation
experiment E7, where an item's regret is re-evaluated over the servers that
*currently* have room for it: an item whose second-best option just filled up
becomes urgent and is placed next, before its best option fills up too.

One engine implements both modes.  The static mode is one sequential walk
over the regret order, each item tested and placed one at a time with a
scalar feasibility test and addition order, so each placement is exactly
the per-item scan's.  On narrow fleets each item walks its preference list
(its servers by descending desirability) to the first one that fits.  On
wide fleets first choices come from vectorised masked-argmax blocks of 64
positions; loads only grow, so a block choice stays exact while its server
still fits, and an item displaced from it is re-evaluated on the spot by a
masked argmax over its table row.  The dynamic mode maintains each
item's top-two feasible desirabilities incrementally and re-evaluates only
the items whose cached best or second-best server just received load,
instead of re-partitioning every remaining column after every placement.

The static engine's re-evaluation table is an optional set of servers per
item (ascending ids), with the item's desirabilities of them and a per-item
threshold: no server outside the set is more desirable than the set's
minimum, and each is strictly less desirable than any listed value above the
threshold.  A feasible table hit above the threshold is then the fleet-wide
winner; any other falls through to a full-width scan.  The server sets are
rows of a shared ``(rows x K)`` id table that each item reaches through its
row index, so items with the same set share one row.  The table is either
each item's top-64 servers (wide fleets; one row per item), thresholded at
the set's minimum, or a caller's candidate lists
(:func:`max_regret_assign_candidates`) with the caller's floor: GreZ's zone
candidates on the sparse delay backend (one row per zone, and each item is
a zone), floored at the zone population that every non-candidate costs, and
GreC's, where every needy client reads its zone's row of the same table and
whose non-candidates all sit strictly below every candidate, so there
(floor ``-inf``) a feasible hit is always final.

Both fallback modes accept an optional ``fallback_allowed`` candidate mask
that makes the ``least_loaded`` emergency placement *delay-aware*: the
residual-capacity argmax runs over the item's allowed servers (e.g. the
sparse delay backend's per-zone candidate sets) instead of the whole fleet,
falling back to the unrestricted argmax only when the item has no allowed
server at all.  Without a mask the behaviour is exactly the classic
delay-blind fallback.

The per-item Python scan that specifies these semantics is kept as a
test-only oracle (``tests/reference/regret_loop.py``); the engine must match
it bit for bit on assignments, loads and overflow flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.chunks import row_chunks

__all__ = [
    "RegretResult",
    "max_regret_assign",
    "max_regret_assign_candidates",
    "regret_order",
]

#: Capacity slack shared by every feasibility check (matches the heuristics).
_CAP_EPS = 1e-9

#: Positions per vectorised first-choice block of the static walk.
_BLOCK = 64

#: Width of the static engine's top-T re-evaluation table on wide fleets.
_TOP_T = 64


@dataclass(frozen=True)
class RegretResult:
    """Outcome of a max-regret greedy pass.

    Attributes
    ----------
    item_to_server:
        ``(num_items,)`` chosen server per item; ``-1`` when an item could not
        be placed within capacity and no fallback was requested.
    loads:
        Final per-server loads (initial loads plus placed demands).
    capacity_exceeded:
        True when the fallback had to place at least one item on a server
        whose residual capacity was insufficient.
    """

    item_to_server: np.ndarray
    loads: np.ndarray
    capacity_exceeded: bool


def regret_order(desirability: np.ndarray) -> np.ndarray:
    """Order item indices by decreasing regret (best minus second-best desirability).

    With a single server the regret of every item is defined as 0, so the
    order degenerates to the input order.
    """
    desirability = np.asarray(desirability, dtype=np.float64)
    if desirability.ndim != 2:
        raise ValueError("desirability must be a (num_servers, num_items) matrix")
    num_servers, num_items = desirability.shape
    if num_items == 0:
        return np.zeros(0, dtype=np.int64)
    if num_servers == 1:
        return np.arange(num_items, dtype=np.int64)
    # partition the two largest desirabilities per column
    top_two = np.partition(desirability, num_servers - 2, axis=0)[-2:, :]
    regrets = top_two[1] - top_two[0]
    # Stable sort keeps input order among ties, making the heuristic deterministic.
    return np.argsort(-regrets, kind="stable").astype(np.int64)


def _fallback_server(
    capacities: np.ndarray,
    loads: np.ndarray,
    allowed_column: Optional[np.ndarray],
) -> int:
    """Least-loaded fallback server: argmax of residual capacity.

    With a candidate column (the delay-aware fallback) the argmax runs over
    the allowed servers only; an item with no allowed server at all falls
    back to the unrestricted argmax — a placement must still be made.  Ties
    resolve to the lowest server index in both forms (``np.argmax`` returns
    the first maximum).
    """
    residual = capacities - loads
    if allowed_column is not None and allowed_column.any():
        return int(np.argmax(np.where(allowed_column, residual, -np.inf)))
    return int(np.argmax(residual))


# --------------------------------------------------------------------------- #
# Static mode — one sequential walk over the regret order.
# --------------------------------------------------------------------------- #
def _table(
    table_idx: np.ndarray, item_rows: np.ndarray, table_val: np.ndarray, thresh: np.ndarray
):
    """Re-evaluation table and static regret order from per-item server sets.

    Item ``j``'s set is row ``item_rows[j]`` of ``table_idx``, servers in
    ascending id order, and ``table_val[j]`` holds its desirabilities of
    them, the item's largest: every unlisted server is no more desirable
    than the smallest listed one, and strictly less desirable than any
    listed value above the item's ``thresh``.  The set's two largest values
    are then the two largest of the full row — the exact values
    :func:`regret_order` would partition out of the whole matrix — so the
    regret order falls out of a cheap in-set partition.

    The table is ``(top_idx, item_rows, top_val, top_thresh)``: a feasible
    hit above ``top_thresh`` is final, one at it falls through to the full
    row.

    The partition runs over row chunks of ``table_val``, so its copy never
    spans the whole ``(items x K)`` table.
    """
    width = table_idx.shape[1]
    regrets = np.empty(table_val.shape[0])
    for rows in row_chunks(*table_val.shape):
        top_two = np.partition(table_val[rows], width - 2, axis=1)[:, -2:]
        np.subtract(top_two[:, 1], top_two[:, 0], out=regrets[rows])
    order = np.argsort(-regrets, kind="stable").astype(np.int64)
    top_idx = np.asarray(table_idx, dtype=np.intp)
    return (top_idx, np.asarray(item_rows, dtype=np.intp), table_val, thresh), order


def _assign_static_vectorized(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    fallback_allowed: Optional[np.ndarray] = None,
) -> bool:
    """Static placement over the full matrix: build the table, run the walk.

    Every per-item read (block scans, re-evaluations) wants one contiguous
    desirability row per item, i.e. the ``(items x servers)`` layout.
    ``desirability.T`` is used as it is when it is already C-contiguous —
    GreZ's cost tables (dense and sparse) and GreC's dense refined-cost rows
    arrive that way — and copied once otherwise.

    On fleets wider than ``2 * _TOP_T`` the re-evaluation table (see
    :func:`_static_walk`) holds each item's top-``_TOP_T`` servers by
    desirability, thresholded at its minimum (an ``argpartition`` over the
    fleet — boundary-tied subsets it picks arbitrarily can never change a
    placement, because ties at the table minimum fall through to the full
    scan).  Narrower fleets walk each item's preference list instead.
    """
    num_servers, num_items = desirability.shape
    if num_items == 0:
        return False
    des_items = np.ascontiguousarray(desirability.T)

    top = None
    if num_servers > 2 * _TOP_T:
        part_idx = np.argpartition(des_items, num_servers - _TOP_T, axis=1)[:, -_TOP_T:]
        table_idx = np.sort(part_idx, axis=1)
        table_val = np.take_along_axis(des_items, table_idx, axis=1)
        top, order = _table(table_idx, np.arange(num_items), table_val, table_val.min(axis=1))
    else:
        order = regret_order(desirability)

    def get_rows(cols: np.ndarray, servers: Optional[np.ndarray]) -> np.ndarray:
        if servers is None:
            return des_items[cols]
        return des_items[np.ix_(cols, servers)]

    return _static_walk(
        demands, capacities, loads, item_to_server, fallback, fallback_allowed,
        order, top, get_rows, des_items,
    )


def _best_feasible(
    cols: np.ndarray,
    d_cols: np.ndarray,
    loads: np.ndarray,
    cap_eps: np.ndarray,
    top: tuple,
    get_rows,
) -> np.ndarray:
    """Each item's most desirable server that can take its demand now (-1: none).

    The vectorised masked argmax over a block of items (first maximum =
    lowest server id, the per-item scan's stable preference walk) under the
    scan's feasibility test ``loads + demand <= capacities + eps``.  Items are first
    looked up in the re-evaluation table ``top``; a hit is final when it
    beats the item's threshold.  The rest take a full-width scan over
    ``get_rows`` rows, restricted to the servers that can still take the
    block's smallest demand.
    """
    # ``take`` with intp indices is the cheapest gather numpy offers; the
    # table ids are stored as intp for it.
    top_idx, item_rows, top_val, top_thresh = top
    tier_idx = top_idx.take(item_rows.take(cols), axis=0)
    tier_ok = loads.take(tier_idx) + d_cols[:, None] <= cap_eps.take(tier_idx)
    masked = np.where(tier_ok, top_val.take(cols, axis=0), -np.inf)
    pos = masked.argmax(axis=1)
    # Every outside server is strictly below a listed value above the item's
    # threshold, so such a hit is the row's first maximum (-inf, nothing
    # fits, never is).
    resolved = masked.max(axis=1) > top_thresh.take(cols)
    hit = tier_idx.ravel().take(pos + tier_idx.shape[1] * np.arange(cols.size))
    best = np.where(resolved, hit, -1)
    rest = np.flatnonzero(~resolved)
    cols, d_cols = cols.take(rest), d_cols.take(rest)
    if cols.size:
        # The feasibility test is monotone in the demand operand, so a server
        # that cannot take the block's smallest demand is infeasible for
        # every item in it: scan only the servers still open.
        open_srv = np.flatnonzero(loads + d_cols.min() <= cap_eps)
        if open_srv.size == 0:
            return best
        if open_srv.size == loads.size:
            feasible = loads[None, :] + d_cols[:, None] <= cap_eps[None, :]
            masked = np.where(feasible, get_rows(cols, None), -np.inf)
        else:
            feasible = (
                loads.take(open_srv)[None, :] + d_cols[:, None]
                <= cap_eps.take(open_srv)[None, :]
            )
            masked = np.where(feasible, get_rows(cols, open_srv), -np.inf)
        choice = masked.argmax(axis=1)  # first max == lowest (open) index
        none_left = masked.max(axis=1) == -np.inf
        if open_srv.size != loads.size:
            choice = open_srv.take(choice)
        best[rest] = np.where(none_left, -1, choice)
    return best


def _full_scan_one(item: int, d: float, loads: np.ndarray, cap_eps: np.ndarray, get_rows) -> int:
    """One item's masked argmax over its full desirability row (-1: none fits).

    The walk's fall-through for an item its table cannot decide; the same
    test and tie rule as :func:`_best_feasible`'s full scan, without the
    block bookkeeping.
    """
    masked = np.where(loads + d <= cap_eps, get_rows(np.array([item]), None)[0], -np.inf)
    server = int(masked.argmax())
    return -1 if masked[server] == -np.inf else server


def _static_walk(
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    fallback_allowed: Optional[np.ndarray],
    order: np.ndarray,
    top: Optional[tuple],
    get_rows,
    des_items: Optional[np.ndarray] = None,
) -> bool:
    """The static placement walk shared by the full-matrix and candidate paths.

    Items are placed one at a time in regret order ``order``, exactly as the
    per-item scan places them: the feasibility test is the scan's own
    scalar expression ``load + d <= capacity + eps`` on Python-float mirrors
    of ``loads`` and ``capacities + _CAP_EPS``, and each placement adds its
    demand to its server's running load and writes the sum back to
    ``loads``, so even the floating-point addition order is the scan's.

    Without a table (fleets of at most ``2 * _TOP_T`` servers, where
    ``des_items`` holds the full rows) each item walks its preference list:
    its servers by descending desirability, the lowest id first among ties
    (a stable argsort of its negated row).  It takes the first server that
    passes the scalar test, which is the masked first maximum, the lowest
    server id among the best feasible ones.  The lists are built in row
    chunks of :data:`~repro.utils.chunks.CHUNK_CELLS` cells, in walk order,
    so their memory stays bounded on large dense worlds.

    With a table, first choices come in vectorised blocks of ``_BLOCK``
    positions (:func:`_best_feasible` under the loads at the block's start).
    Loads only grow, so a block choice stays exact while its server still
    fits the item: the feasible set only shrinks, and the first maximum of a
    shrinking set that still holds the previous winner is that winner.  A
    block choice of ``-1`` (nothing fits) is final for the same reason.  An
    item whose block choice no longer fits is re-evaluated on the spot by a
    masked argmax over its table row, which keeps the first maximum too.
    Only when the table cannot decide — a best hit tied at the item's
    threshold ``top_thresh``, or every listed server full — does the item
    take a full-width scan (:func:`_full_scan_one`).

    An item with no feasible server is left at ``-1`` under
    ``fallback="skip"`` and placed at its exact position by the
    ``least_loaded`` fallback otherwise.

    ``top`` is the optional ``(top_idx, item_rows, top_val, top_thresh)`` table from
    :func:`_table`; ``get_rows(cols, servers)`` materialises full-width
    desirability rows for the full scan (``servers=None`` means all of them).
    """
    num_items = order.size
    cap_eps = capacities + _CAP_EPS
    cap_list = cap_eps.tolist()
    load_list = loads.tolist()
    d_ord = demands[order]
    chosen: list = []
    skip = fallback == "skip"
    capacity_exceeded = False
    if top is None:
        chunks = row_chunks(num_items, des_items.shape[1])
    else:
        chunks = row_chunks(num_items, 1, _BLOCK)
        top_idx, item_rows, top_val, top_thresh = top

    def reevaluate(item: int, d: float) -> int:
        # One table row: a short numpy masked argmax, which allocates a few
        # arrays where a Python scan would box every entry of the row.
        idx = top_idx[item_rows[item]]
        masked = np.where(loads.take(idx) + d <= cap_eps.take(idx), top_val[item], -np.inf)
        k = int(masked.argmax())
        if masked[k] > top_thresh[item]:
            return int(idx[k])
        return _full_scan_one(item, d, loads, cap_eps, get_rows)

    for rows in chunks:
        cols = order[rows]
        if top is None:
            prefs = np.argsort(-des_items.take(cols, axis=0), axis=1, kind="stable").tolist()
        else:
            first = _best_feasible(cols, d_ord[rows], loads, cap_eps, top, get_rows).tolist()
        for k, d in enumerate(d_ord[rows].tolist()):
            if top is None:
                server = -1
                for s in prefs[k]:
                    if load_list[s] + d <= cap_list[s]:
                        server = s
                        break
            else:
                server = first[k]
                if server >= 0 and not load_list[server] + d <= cap_list[server]:
                    server = reevaluate(int(cols[k]), d)
            if server < 0:
                if skip:
                    chosen.append(-1)
                    continue
                item = int(cols[k])
                allowed = None if fallback_allowed is None else fallback_allowed[:, item]
                server = _fallback_server(capacities, loads, allowed)
                capacity_exceeded = True
            load = load_list[server] + d
            load_list[server] = load
            loads[server] = load
            chosen.append(server)
    item_to_server[order] = chosen
    return capacity_exceeded


# --------------------------------------------------------------------------- #
# Dynamic mode — incremental top-two maintenance.
# --------------------------------------------------------------------------- #
def _top_two_feasible(masked: np.ndarray):
    """Best / second-best feasible desirability per column of a masked matrix.

    Returns ``(best_val, best_srv, second_val, second_srv, regrets)`` where the
    server indices are the *first* index attaining each value (matching the
    stable preference walk of the per-item scan) and ``regrets`` is the
    dynamic regret: best minus second-best, ``+inf`` for an item with one
    feasible server left and ``-inf`` for an item with none.
    """
    cols = np.arange(masked.shape[1])
    best_srv = masked.argmax(axis=0)
    best_val = masked[best_srv, cols]
    scratch = masked.copy()
    scratch[best_srv, cols] = -np.inf
    second_srv = scratch.argmax(axis=0)
    second_val = scratch[second_srv, cols]
    with np.errstate(invalid="ignore"):
        regrets = best_val - second_val
    regrets[np.isneginf(best_val)] = -np.inf
    return best_val, best_srv, second_val, second_srv, regrets


def _assign_dynamic_incremental(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    fallback_allowed: Optional[np.ndarray] = None,
) -> bool:
    """Dynamic-regret placement with incrementally maintained top-two caches.

    Placing an item only changes one server's load, and an item's dynamic
    regret only changes when a server in its feasible top two does — so after
    each placement only the remaining items whose cached best or second-best
    server just received load are re-evaluated (one masked argmax over that
    subset), instead of re-partitioning the full remaining matrix after every
    placement.  Selection, placement and fallback semantics are exactly the
    per-item scan's, so the assignments are bit-identical to it.
    """
    num_items = desirability.shape[1]
    capacity_exceeded = False
    if num_items == 0:
        return False

    feasible = loads[:, None] + demands[None, :] <= capacities[:, None] + _CAP_EPS
    masked = np.where(feasible, desirability, -np.inf)
    best_val, best_srv, second_val, second_srv, regrets = _top_two_feasible(masked)

    remaining = np.ones(num_items, dtype=bool)

    for _ in range(num_items):
        # First maximum among the remaining indices, so regret ties resolve
        # to the lowest item index — exactly the per-item scan's selection rule.
        idx = np.flatnonzero(remaining)
        item = int(idx[int(np.argmax(regrets[idx]))])
        remaining[item] = False

        touched: Optional[int] = None
        if np.isneginf(best_val[item]):
            # No feasible server left: fallback, exactly like the per-item scan.
            if fallback == "least_loaded":
                allowed = None if fallback_allowed is None else fallback_allowed[:, item]
                server = _fallback_server(capacities, loads, allowed)
                item_to_server[item] = server
                loads[server] += demands[item]
                capacity_exceeded = True
                touched = server
            # fallback == "skip": leave as -1, no state change
        else:
            server = int(best_srv[item])
            item_to_server[item] = server
            loads[server] += demands[item]
            touched = server

        if touched is None:
            continue
        # Only items whose cached top two involve the touched server can see
        # their best / second-best change; everything else stays valid.
        stale = remaining & ((best_srv == touched) | (second_srv == touched))
        if stale.any():
            stale_idx = np.flatnonzero(stale)
            sub_feasible = (
                loads[:, None] + demands[stale_idx][None, :]
                <= capacities[:, None] + _CAP_EPS
            )
            sub_masked = np.where(sub_feasible, desirability[:, stale_idx], -np.inf)
            b_val, b_srv, s_val, s_srv, sub_regrets = _top_two_feasible(sub_masked)
            best_val[stale_idx] = b_val
            best_srv[stale_idx] = b_srv
            second_val[stale_idx] = s_val
            second_srv[stale_idx] = s_srv
            regrets[stale_idx] = sub_regrets

    return capacity_exceeded


def _check_finite(values: np.ndarray, name: str) -> None:
    """Reject NaN and ±inf (``-inf`` is the engines' infeasibility mask).

    ``min`` and ``max`` propagate NaN, so two reductions cover all three
    cases without an elementwise temporary.
    """
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{name} must be finite (no NaN or ±inf)")


def _checked_loads(
    demands: np.ndarray,
    capacities: np.ndarray,
    initial_loads: Optional[np.ndarray],
    num_servers: int,
) -> np.ndarray:
    """Validate demands, capacities and initial loads; returns a fresh loads array."""
    _check_finite(demands, "demands")
    _check_finite(capacities, "capacities")
    if (demands < 0).any():
        raise ValueError("demands must be non-negative")
    if initial_loads is None:
        return np.zeros(num_servers)
    loads = np.array(initial_loads, dtype=np.float64)
    if loads.shape != (num_servers,):
        raise ValueError("initial_loads must have one entry per server")
    _check_finite(loads, "initial_loads")
    return loads


def _checked_candidates(
    candidate_servers: np.ndarray, item_rows: np.ndarray, num_items: int, num_servers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``(rows, K)`` candidate table and its per-item row index.

    Returns the table as int64 and the index as intp.  The checks read the
    table, not the items, so their temporaries have the table's size.
    """
    cand_idx = np.asarray(candidate_servers, dtype=np.int64)
    if cand_idx.ndim != 2 or cand_idx.shape[1] < 2:
        raise ValueError(f"candidate_servers must be (rows, K) with K >= 2, got {cand_idx.shape}")
    if num_servers < cand_idx.shape[1]:
        raise ValueError("num_servers must be at least the candidate-list width")
    if cand_idx.size and (cand_idx[:, 0].min() < 0 or cand_idx[:, -1].max() >= num_servers):
        raise ValueError("candidate_servers contains invalid server indices")
    if cand_idx.size and not (cand_idx[:, 1:] > cand_idx[:, :-1]).all():
        raise ValueError("candidate_servers rows must be strictly increasing")
    rows = np.asarray(item_rows)
    if rows.shape != (num_items,) or not (rows.size == 0 or rows.dtype.kind in "iu"):
        raise ValueError(f"item_rows must be ({num_items},) integer row indices")
    if rows.size and (rows.min() < 0 or rows.max() >= cand_idx.shape[0]):
        raise ValueError("item_rows contains invalid candidate_servers rows")
    return cand_idx, rows.astype(np.intp, copy=False)


def max_regret_assign(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    initial_loads: Optional[np.ndarray] = None,
    fallback: str = "least_loaded",
    recompute: bool = False,
    fallback_allowed: Optional[np.ndarray] = None,
) -> RegretResult:
    """Assign items to servers with the max-regret greedy heuristic.

    Parameters
    ----------
    desirability:
        ``(num_servers, num_items)`` desirability ``mu[i, j]`` (higher better).
        Values must be finite — ``-inf`` is reserved as the engine's internal
        infeasibility mask (the library's cost matrices are always finite) —
        and NaN or ±inf raise ``ValueError``.
    demands:
        ``(num_items,)`` resource demand added to the chosen server's load;
        finite and non-negative.
    capacities:
        ``(num_servers,)`` server capacities; finite.
    initial_loads:
        Optional existing per-server loads (e.g. target-server traffic already
        committed by the initial phase); finite.  NaN or ±inf in ``demands``,
        ``capacities`` or ``initial_loads`` raise ``ValueError``.
    fallback:
        What to do when no server has room for an item:
        ``"least_loaded"`` (default) places it on the server with the largest
        residual capacity and flags ``capacity_exceeded``; ``"skip"`` leaves it
        unassigned (``-1``).
    recompute:
        When True the regrets are dynamic (the ablation study's variant): an
        item's regret is re-evaluated over the servers that currently have
        room for it after every placement, so items whose alternatives are
        filling up are placed with priority; an item whose last feasible
        server is at risk becomes maximally urgent.  When False (the paper's
        pseudocode) regrets are computed once from the full matrix.
    fallback_allowed:
        Optional ``(num_servers, num_items)`` boolean candidate mask for the
        ``least_loaded`` fallback: the emergency placement's residual-capacity
        argmax then runs over the item's allowed servers (delay-aware — e.g.
        the sparse delay backend's per-zone candidate sets) instead of the
        whole fleet.  An item with no allowed server falls back to the
        unrestricted argmax.  Ignored by ``fallback="skip"``; ``None`` keeps
        the classic delay-blind fallback.

    Returns
    -------
    RegretResult
    """
    desirability = np.asarray(desirability, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    if desirability.ndim != 2:
        raise ValueError("desirability must be (num_servers, num_items)")
    _check_finite(desirability, "desirability")
    num_servers, num_items = desirability.shape
    if demands.shape != (num_items,):
        raise ValueError("demands must have one entry per item")
    if capacities.shape != (num_servers,):
        raise ValueError("capacities must have one entry per server")
    if fallback not in ("least_loaded", "skip"):
        raise ValueError("fallback must be 'least_loaded' or 'skip'")
    if fallback_allowed is not None:
        fallback_allowed = np.asarray(fallback_allowed, dtype=bool)
        if fallback_allowed.shape != (num_servers, num_items):
            raise ValueError(
                f"fallback_allowed must have shape ({num_servers}, {num_items}), "
                f"got {fallback_allowed.shape}"
            )
    loads = _checked_loads(demands, capacities, initial_loads, num_servers)

    item_to_server = np.full(num_items, -1, dtype=np.int64)

    if recompute:
        capacity_exceeded = _assign_dynamic_incremental(
            desirability, demands, capacities, loads, item_to_server, fallback,
            fallback_allowed,
        )
    else:
        capacity_exceeded = _assign_static_vectorized(
            desirability, demands, capacities, loads, item_to_server, fallback,
            fallback_allowed,
        )

    return RegretResult(
        item_to_server=item_to_server,
        loads=loads,
        capacity_exceeded=capacity_exceeded,
    )


def max_regret_assign_candidates(
    candidate_servers: np.ndarray,
    item_rows: np.ndarray,
    candidate_desirability: np.ndarray,
    num_servers: int,
    demands: np.ndarray,
    capacities: np.ndarray,
    row_provider,
    initial_loads: Optional[np.ndarray] = None,
    fallback: str = "least_loaded",
    fallback_allowed: Optional[np.ndarray] = None,
    floor: float | np.ndarray = -np.inf,
) -> RegretResult:
    """Static max-regret placement driven by per-item candidate lists.

    Bit-identical to :func:`max_regret_assign` (static mode) on the implied
    full ``(num_servers, num_items)`` desirability matrix, but it never
    materialises that matrix: the caller supplies, per item, the candidate
    servers and their desirabilities, and the engine's re-evaluation table
    is built straight from them — no per-item ``argpartition`` over the
    fleet and no O(items × servers) cost rows.
    This is the sparse-delay-backend path of GreZ and GreC: a zone's, and a
    needy client's, informative servers are exactly the zone's K candidates.
    The candidate ids are one shared table that each item reaches through
    its row index, so GreC's needy clients read their zones' rows of the
    matrix's ``(zones, K)`` table instead of a per-client copy; only the
    desirabilities are per item.

    The caller must guarantee the *dominance contract*: for every item, the
    desirability of every server **not** listed is at most the item's
    smallest listed desirability, and strictly below every listed one above
    the item's ``floor``.  Under the contract a feasible candidate hit above
    the floor is always the fleet-wide masked-argmax winner.  Everything
    else falls through to a full-width scan over rows fetched from
    ``row_provider``, which lands exactly where the full-matrix engine's
    would: an item whose whole candidate list is out of capacity, and a hit
    tied at the floor, where a lower-id unlisted server may tie it.

    GreC's contract is strict (the default ``floor=-inf``): its candidate
    costs sit strictly below the sentinel-cost floor of every other server.
    The fall-throughs are not rare: on the ``reexec-100k`` ledger workload
    (500 servers, 2,000 zones, 100k clients, top-64) GreC's two calls per
    epoch make 59 to 62 ``row_provider`` calls between them (traced ledger
    rounds, ``python3 -m bench run --trace 1``), for clients whose
    candidates have all filled.  GreZ's contract is non-strict: every
    non-candidate costs the whole zone, which a candidate can tie, so GreZ
    passes the negated zone populations as ``floor``.

    Parameters
    ----------
    candidate_servers:
        ``(rows, K)`` candidate server indices, strictly increasing per row
        (which also guarantees distinctness); ``K >= 2`` so the regret (best
        minus second-best desirability) is defined from the list alone.
    item_rows:
        ``(num_items,)`` integer index: item ``j``'s candidates are row
        ``item_rows[j]`` of ``candidate_servers``.  Items may share a row;
        a table with one row per item passes ``np.arange(num_items)``.
    candidate_desirability:
        ``(num_items, K)`` desirability of each of the item's listed
        servers, aligned with its row of ``candidate_servers``; NaN or ±inf
        raise ``ValueError``.
    num_servers:
        Fleet size ``m`` (the virtual column count).
    demands / capacities / initial_loads / fallback / fallback_allowed:
        As in :func:`max_regret_assign`.
    row_provider:
        ``row_provider(items) -> (len(items), num_servers)`` full-width
        desirability rows, consistent with ``candidate_desirability`` on the
        listed entries; called only for fall-through items.
    floor:
        Per item (or one for all), the desirability at or below which a
        feasible listed hit falls through to the full row; see the contract
        above.  ``-inf`` (the default) makes every feasible hit final.  NaN
        raises ``ValueError``.

    Returns
    -------
    RegretResult
    """
    cand_val = np.asarray(candidate_desirability, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    num_servers = int(num_servers)
    if cand_val.ndim != 2:
        raise ValueError("candidate_desirability must be (num_items, K)")
    _check_finite(cand_val, "candidate_desirability")
    num_items = cand_val.shape[0]
    cand_idx, item_rows = _checked_candidates(candidate_servers, item_rows, num_items, num_servers)
    if cand_val.shape[1] != cand_idx.shape[1]:
        raise ValueError("candidate_desirability must be as wide as candidate_servers")
    if demands.shape != (num_items,):
        raise ValueError("demands must have one entry per item")
    if capacities.shape != (num_servers,):
        raise ValueError("capacities must have one entry per server")
    if fallback not in ("least_loaded", "skip"):
        raise ValueError("fallback must be 'least_loaded' or 'skip'")
    if fallback_allowed is not None:
        fallback_allowed = np.asarray(fallback_allowed, dtype=bool)
        if fallback_allowed.shape != (num_servers, num_items):
            raise ValueError(
                f"fallback_allowed must have shape ({num_servers}, {num_items}), "
                f"got {fallback_allowed.shape}"
            )
    floor = np.broadcast_to(np.asarray(floor, dtype=np.float64), (num_items,))
    if np.isnan(floor).any():
        raise ValueError("floor must not be NaN")
    loads = _checked_loads(demands, capacities, initial_loads, num_servers)

    item_to_server = np.full(num_items, -1, dtype=np.int64)
    if num_items == 0:
        return RegretResult(item_to_server=item_to_server, loads=loads, capacity_exceeded=False)

    # The rows already arrive in ascending server-id order (the table's
    # contract), and under the dominance contract the list holds each item's
    # two largest desirabilities.
    top, order = _table(cand_idx, item_rows, cand_val, floor)

    def get_rows(cols: np.ndarray, servers: Optional[np.ndarray]) -> np.ndarray:
        rows = np.asarray(row_provider(cols), dtype=np.float64)
        if rows.shape != (cols.size, num_servers):
            raise ValueError(
                f"row_provider must return ({cols.size}, {num_servers}) rows, "
                f"got {rows.shape}"
            )
        _check_finite(rows, "row_provider rows")
        if servers is None:
            return rows
        return rows[:, servers]

    capacity_exceeded = _static_walk(
        demands, capacities, loads, item_to_server, fallback, fallback_allowed,
        order, top, get_rows,
    )
    return RegretResult(
        item_to_server=item_to_server,
        loads=loads,
        capacity_exceeded=capacity_exceeded,
    )
