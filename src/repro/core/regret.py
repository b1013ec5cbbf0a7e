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

Two interchangeable backends implement both modes:

* ``backend="loop"`` — the original per-item Python scan, kept as the
  executable specification of the placement semantics.
* ``backend="vectorized"`` (default) — the same placements with the work
  batched.  The static mode is one sequential walk over the regret order:
  first choices come from vectorised masked-argmax blocks of 64 positions,
  and each item is then tested and placed one at a time with the loop's own
  scalar feasibility test and addition order, so the walk equals the loop
  by construction.  Loads only grow, so a block choice stays exact while
  its server still fits; an item displaced from it is re-evaluated on the
  spot by a masked argmax over its table row (a pure-Python scan of its
  full row on fleets too narrow for a table).  The dynamic mode maintains each item's top-two
  feasible desirabilities incrementally and re-evaluates only the items
  whose cached best or second-best server just received load, instead of
  re-partitioning every remaining column after every placement.

The static engine's re-evaluation table is an optional per-item set of
servers (ascending ids).  A feasible table hit that beats the table's
minimum is the fleet-wide winner whenever every server outside the table is
no more desirable than that minimum; a hit tied at the minimum falls through
to a full-width scan.  The table is either each item's top-64 servers (wide
fleets) or a caller's candidate sets (``candidate_servers``, e.g. GreZ's
zone candidates on the sparse delay backend, whose non-candidates all sit
at the zone-population floor).  :func:`max_regret_assign_candidates` uses a
*strictly* dominant candidate table, so there a feasible hit is always
final, and only an item whose whole candidate set is full takes the full
scan.

Both fallback modes accept an optional ``fallback_allowed`` candidate mask
that makes the ``least_loaded`` emergency placement *delay-aware*: the
residual-capacity argmax runs over the item's allowed servers (e.g. the
sparse delay backend's per-zone candidate sets) instead of the whole fleet,
falling back to the unrestricted argmax only when the item has no allowed
server at all.  Without a mask the behaviour is exactly the classic
delay-blind fallback.

The two backends produce bit-identical assignments, loads and overflow flags
for the same inputs (the equivalence is property-tested across fallback
modes, capacity-tight instances and degenerate shapes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "RegretResult",
    "max_regret_assign",
    "max_regret_assign_candidates",
    "regret_order",
    "BACKENDS",
    "DEFAULT_BACKEND",
]

#: Placement backends: the batched engine and the per-item executable spec.
BACKENDS = ("vectorized", "loop")

#: Backend used when callers do not ask for one explicitly.
DEFAULT_BACKEND = "vectorized"

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


def _feasible_regrets(masked: np.ndarray) -> np.ndarray:
    """Per-item dynamic regret, given desirability masked to ``-inf`` when infeasible.

    Items with two or more feasible servers get the usual best-minus-second
    gap; an item whose *only* feasible server could still fill up is urgent
    (``+inf``); an item with no feasible server left can only be handled by
    the fallback, so it sorts last (``-inf``).
    """
    num_servers = masked.shape[0]
    if num_servers == 1:
        return np.where(np.isneginf(masked[0]), -np.inf, np.inf)
    top_two = np.partition(masked, num_servers - 2, axis=0)[-2:, :]
    with np.errstate(invalid="ignore"):
        regrets = top_two[1] - top_two[0]
    # -inf minus -inf is NaN: no feasible server at all.
    regrets[np.isneginf(top_two[1])] = -np.inf
    return regrets


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
# Loop backend — the executable specification of the placement semantics.
# --------------------------------------------------------------------------- #
def _assign_loop(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    recompute: bool,
    fallback_allowed: Optional[np.ndarray] = None,
) -> bool:
    """Per-item scan; mutates ``loads`` / ``item_to_server``, returns overflow flag."""
    num_servers, num_items = desirability.shape
    capacity_exceeded = False

    # Pre-sorted server preference per item (descending desirability).
    preference = np.argsort(-desirability, axis=0, kind="stable")

    def place(item: int) -> None:
        nonlocal capacity_exceeded
        for server in preference[:, item]:
            if loads[server] + demands[item] <= capacities[server] + _CAP_EPS:
                item_to_server[item] = server
                loads[server] += demands[item]
                return
        if fallback == "least_loaded":
            allowed = None if fallback_allowed is None else fallback_allowed[:, item]
            server = _fallback_server(capacities, loads, allowed)
            item_to_server[item] = server
            loads[server] += demands[item]
            capacity_exceeded = True
        # fallback == "skip": leave as -1

    if not recompute:
        for item in regret_order(desirability):
            place(int(item))
    else:
        remaining = np.ones(num_items, dtype=bool)
        for _ in range(num_items):
            idx = np.flatnonzero(remaining)
            feasible = loads[:, None] + demands[idx][None, :] <= capacities[:, None] + _CAP_EPS
            masked = np.where(feasible, desirability[:, idx], -np.inf)
            regrets = _feasible_regrets(masked)
            # First maximum wins, so regret ties resolve to the lowest index.
            item = int(idx[int(np.argmax(regrets))])
            remaining[item] = False
            place(item)
    return capacity_exceeded


# --------------------------------------------------------------------------- #
# Vectorized backend, static mode — one sequential walk over the regret order.
# --------------------------------------------------------------------------- #
def _table(table_idx: np.ndarray, table_val: np.ndarray, tier_complete: bool):
    """Re-evaluation table and static regret order from per-item server sets.

    ``table_idx`` lists, per item, servers in ascending id order whose
    desirabilities ``table_val`` are the item's largest: every unlisted
    server is no more desirable than the smallest listed one.  The set's two
    largest values are then the two largest of the full row — the exact
    values :func:`regret_order` would partition out of the whole matrix — so
    the regret order falls out of a cheap in-set partition.

    The table is ``(top_idx, top_val, top_thresh)``; ``top_thresh`` is each
    row's minimum, or ``None`` when ``tier_complete`` (every unlisted server
    *strictly* below the row minimum), where a feasible table hit is final
    and the threshold is never read.
    """
    width = table_idx.shape[1]
    top_two = np.partition(table_val, width - 2, axis=1)[:, -2:]
    regrets = top_two[:, 1] - top_two[:, 0]
    order = np.argsort(-regrets, kind="stable").astype(np.int64)
    thresh = None if tier_complete else table_val.min(axis=1)
    return (np.asarray(table_idx, dtype=np.intp), table_val, thresh), order


def _assign_static_vectorized(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    fallback_allowed: Optional[np.ndarray] = None,
    candidate_servers: Optional[np.ndarray] = None,
) -> bool:
    """Static placement over the full matrix: build the table, run the walk.

    Every per-item read (block scans, re-evaluations) wants one contiguous
    desirability row per item, i.e. the ``(items x servers)`` layout.
    ``desirability.T`` is used as it is when it is already C-contiguous —
    GreZ's cost tables (dense and sparse) and GreC's dense refined-cost rows
    arrive that way — and copied once otherwise.

    The re-evaluation table (see :func:`_static_walk`) comes from
    ``candidate_servers`` when given; otherwise, on fleets wider than
    ``2 * _TOP_T``, from each item's top-``_TOP_T`` servers by desirability
    (an ``argpartition`` over the fleet — boundary-tied subsets it picks
    arbitrarily can never change a placement, because ties at the table
    minimum fall through to the full scan).  Narrower fleets re-evaluate
    over the whole row.
    """
    num_servers, num_items = desirability.shape
    if num_items == 0:
        return False
    des_items = np.ascontiguousarray(desirability.T)

    top = None
    table_idx = candidate_servers
    if table_idx is None and num_servers > 2 * _TOP_T:
        part_idx = np.argpartition(des_items, num_servers - _TOP_T, axis=1)[:, -_TOP_T:]
        table_idx = np.sort(part_idx, axis=1)
    if table_idx is not None:
        top, order = _table(
            table_idx, np.take_along_axis(des_items, table_idx, axis=1), False
        )
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
    top: Optional[tuple],
    get_rows,
) -> np.ndarray:
    """Each item's most desirable server that can take its demand now (-1: none).

    The vectorised masked argmax over a block of items (first maximum =
    lowest server id, the loop's stable preference walk) under the loop's
    feasibility test ``loads + demand <= capacities + eps``.  Items are first
    looked up in the re-evaluation table ``top``; a hit is final when the
    table is complete (``top_thresh`` is ``None``) or when it beats the row
    minimum.  The rest take a full-width scan over ``get_rows`` rows,
    restricted to the servers that can still take the block's smallest
    demand.
    """
    rest = None
    if top is None:
        best = np.full(cols.size, -1, dtype=np.int64)
    else:
        # ``take`` with intp indices is the cheapest gather numpy offers;
        # the table ids are stored as intp for it.
        top_idx, top_val, top_thresh = top
        tier_idx = top_idx.take(cols, axis=0)
        tier_ok = loads.take(tier_idx) + d_cols[:, None] <= cap_eps.take(tier_idx)
        masked = np.where(tier_ok, top_val.take(cols, axis=0), -np.inf)
        pos = masked.argmax(axis=1)
        vbest = masked.max(axis=1)
        if top_thresh is None:
            # Every table value is >= the item's threshold and every outside
            # server is strictly below it: found == resolved.
            resolved = vbest != -np.inf
        else:
            resolved = vbest > top_thresh.take(cols)
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
        found = np.where(none_left, -1, choice)
        if rest is None:
            best = found
        else:
            best[rest] = found
    return best


def _full_scan_one(
    item: int, d: float, loads: np.ndarray, cap_eps: np.ndarray, get_rows
) -> int:
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
    loop specification places them: the feasibility test is the loop's own
    scalar expression ``load + d <= capacity + eps`` on Python-float mirrors
    of ``loads`` and ``capacities + _CAP_EPS``, and each placement adds its
    demand to its server's running load and writes the sum back to
    ``loads``, so even the floating-point addition order is the loop's.

    First choices come in vectorised blocks of ``_BLOCK`` positions
    (:func:`_best_feasible` under the loads at the block's start).  Loads
    only grow, so a block choice stays exact while its server still fits
    the item: the feasible set only shrinks, and the first maximum of a
    shrinking set that still holds the previous winner is that winner.  A
    block choice of ``-1`` (nothing fits) is final for the same reason.  An
    item whose block choice no longer fits is re-evaluated on the spot by a
    masked argmax over its table row, or, without a table (fleets of at most
    ``2 * _TOP_T`` servers), by a pure-Python scan of its full ``des_items``
    row; both keep the first maximum, the lowest server id.  Only when the
    table cannot decide — a best hit tied at the row minimum ``top_thresh``,
    or a complete table (``top_thresh is None``) with every listed server
    full — does the item take a full-width scan (:func:`_full_scan_one`).
    An item with no feasible server is left at ``-1`` under
    ``fallback="skip"`` and placed at its exact position by the
    ``least_loaded`` fallback otherwise.

    ``top`` is the optional ``(top_idx, top_val, top_thresh)`` table from
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
    if top is not None:
        top_idx, top_val, top_thresh = top

    def reevaluate(item: int, d: float) -> int:
        if top is None:
            # Narrow fleet: a pure-Python masked argmax over the full row
            # (strictly greater wins, so the first maximum is kept).  It
            # decides exactly what _full_scan_one would, but on 30-server
            # rows it skips five numpy calls per displaced item: with
            # _full_scan_one here, fed-maintenance lost 5.5 % of its ops/s
            # and paper-replications 3.5 % (medians of 10 alternating
            # ledger pairs, 2-vCPU x86-64 host).
            best_v = -np.inf
            best_s = -1
            for s, v in enumerate(des_items[item].tolist()):
                if v > best_v and load_list[s] + d <= cap_list[s]:
                    best_v = v
                    best_s = s
            return best_s
        # One table row: a short numpy masked argmax, which allocates a few
        # arrays where a Python scan would box every entry of the row.
        idx = top_idx[item]
        masked = np.where(loads.take(idx) + d <= cap_eps.take(idx), top_val[item], -np.inf)
        k = int(masked.argmax())
        best_v = masked[k]
        if best_v != -np.inf and (top_thresh is None or best_v > top_thresh[item]):
            return int(idx[k])
        return _full_scan_one(item, d, loads, cap_eps, get_rows)

    for start in range(0, num_items, _BLOCK):
        stop = min(start + _BLOCK, num_items)
        first = _best_feasible(
            order[start:stop], d_ord[start:stop], loads, cap_eps, top, get_rows
        ).tolist()
        for k, (server, d) in enumerate(zip(first, d_ord[start:stop].tolist())):
            if server >= 0 and not load_list[server] + d <= cap_list[server]:
                server = reevaluate(int(order[start + k]), d)
            if server < 0:
                if skip:
                    chosen.append(-1)
                    continue
                item = int(order[start + k])
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
# Vectorized backend, dynamic mode — incremental top-two maintenance.
# --------------------------------------------------------------------------- #
def _top_two_feasible(masked: np.ndarray):
    """Best / second-best feasible desirability per column of a masked matrix.

    Returns ``(best_val, best_srv, second_val, second_srv, regrets)`` where the
    server indices are the *first* index attaining each value (matching the
    stable preference walk of the loop backend) and ``regrets`` follows
    :func:`_feasible_regrets` semantics.
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
    subset), instead of re-partitioning the full remaining matrix like the
    loop backend.  Selection, placement and fallback semantics are exactly
    the loop's, so the assignments are bit-identical.
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
        # to the lowest item index — exactly the loop's selection rule.
        idx = np.flatnonzero(remaining)
        item = int(idx[int(np.argmax(regrets[idx]))])
        remaining[item] = False

        touched: Optional[int] = None
        if np.isneginf(best_val[item]):
            # No feasible server left: fallback, exactly like the loop spec.
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


def _checked_candidates(
    candidate_servers: np.ndarray, num_items: int, num_servers: int
) -> np.ndarray:
    """Validate a ``(num_items, K)`` candidate table; returns it as int64."""
    cand_idx = np.asarray(candidate_servers, dtype=np.int64)
    if cand_idx.ndim != 2 or cand_idx.shape[0] != num_items or cand_idx.shape[1] < 2:
        raise ValueError(
            f"candidate_servers must be ({num_items}, K) with K >= 2, got {cand_idx.shape}"
        )
    if num_servers < cand_idx.shape[1]:
        raise ValueError("num_servers must be at least the candidate-list width")
    if num_items and (cand_idx[:, 0].min() < 0 or cand_idx[:, -1].max() >= num_servers):
        raise ValueError("candidate_servers contains invalid server indices")
    if num_items and not (cand_idx[:, 1:] > cand_idx[:, :-1]).all():
        raise ValueError("candidate_servers rows must be strictly increasing")
    return cand_idx


def max_regret_assign(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    initial_loads: Optional[np.ndarray] = None,
    fallback: str = "least_loaded",
    recompute: bool = False,
    backend: Optional[str] = None,
    fallback_allowed: Optional[np.ndarray] = None,
    candidate_servers: Optional[np.ndarray] = None,
) -> RegretResult:
    """Assign items to servers with the max-regret greedy heuristic.

    Parameters
    ----------
    desirability:
        ``(num_servers, num_items)`` desirability ``mu[i, j]`` (higher better).
        Values must be finite — ``-inf`` is reserved as the backends' internal
        infeasibility mask (the library's cost matrices are always finite) —
        and NaN or ±inf raise ``ValueError``.
    demands:
        ``(num_items,)`` resource demand added to the chosen server's load.
    capacities:
        ``(num_servers,)`` server capacities.
    initial_loads:
        Optional existing per-server loads (e.g. target-server traffic already
        committed by the initial phase).
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
    backend:
        ``"vectorized"`` (default) uses the batched placement engine;
        ``"loop"`` is the original per-item scan, kept as the executable
        specification.  Both produce bit-identical results.
    fallback_allowed:
        Optional ``(num_servers, num_items)`` boolean candidate mask for the
        ``least_loaded`` fallback: the emergency placement's residual-capacity
        argmax then runs over the item's allowed servers (delay-aware — e.g.
        the sparse delay backend's per-zone candidate sets) instead of the
        whole fleet.  An item with no allowed server falls back to the
        unrestricted argmax.  Ignored by ``fallback="skip"``; ``None`` keeps
        the classic delay-blind fallback.  Every backend honours the mask
        identically.
    candidate_servers:
        Optional ``(num_items, K)`` server ids per item, strictly increasing
        per row, ``K >= 2``, under a non-strict dominance contract: every
        unlisted server's desirability is ``<=`` the item's smallest listed
        one (e.g. GreZ's zone candidates on the sparse delay backend, whose
        non-candidates all cost the whole zone population).  The static
        vectorized engine then takes its regret order and re-evaluation
        table from the list instead of partitioning the full matrix; the
        result is the same.  Ignored by ``recompute=True`` and the loop
        backend.

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
    if (demands < 0).any():
        raise ValueError("demands must be non-negative")
    if fallback not in ("least_loaded", "skip"):
        raise ValueError("fallback must be 'least_loaded' or 'skip'")
    if fallback_allowed is not None:
        fallback_allowed = np.asarray(fallback_allowed, dtype=bool)
        if fallback_allowed.shape != (num_servers, num_items):
            raise ValueError(
                f"fallback_allowed must have shape ({num_servers}, {num_items}), "
                f"got {fallback_allowed.shape}"
            )
    backend = DEFAULT_BACKEND if backend is None else backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if candidate_servers is not None:
        candidate_servers = _checked_candidates(candidate_servers, num_items, num_servers)

    loads = np.zeros(num_servers) if initial_loads is None else np.asarray(
        initial_loads, dtype=np.float64
    ).copy()
    if loads.shape != (num_servers,):
        raise ValueError("initial_loads must have one entry per server")

    item_to_server = np.full(num_items, -1, dtype=np.int64)

    if backend == "loop":
        capacity_exceeded = _assign_loop(
            desirability, demands, capacities, loads, item_to_server, fallback,
            recompute, fallback_allowed,
        )
    elif recompute:
        capacity_exceeded = _assign_dynamic_incremental(
            desirability, demands, capacities, loads, item_to_server, fallback,
            fallback_allowed,
        )
    else:
        capacity_exceeded = _assign_static_vectorized(
            desirability, demands, capacities, loads, item_to_server, fallback,
            fallback_allowed, candidate_servers,
        )

    return RegretResult(
        item_to_server=item_to_server,
        loads=loads,
        capacity_exceeded=capacity_exceeded,
    )


def max_regret_assign_candidates(
    candidate_servers: np.ndarray,
    candidate_desirability: np.ndarray,
    num_servers: int,
    demands: np.ndarray,
    capacities: np.ndarray,
    row_provider,
    initial_loads: Optional[np.ndarray] = None,
    fallback: str = "least_loaded",
    fallback_allowed: Optional[np.ndarray] = None,
) -> RegretResult:
    """Static max-regret placement driven by per-item candidate lists.

    Bit-identical to :func:`max_regret_assign` (static mode, vectorized
    backend) on the implied full ``(num_servers, num_items)`` desirability
    matrix, but it never materialises that matrix: the caller supplies, per
    item, the candidate servers and their desirabilities, and the engine's
    re-evaluation table is built straight from them — no per-item
    ``argpartition`` over the fleet and no O(items × servers) cost rows.
    This is the sparse-delay-backend fast path of GreC: each needy client's
    finite-cost servers are exactly its zone's K candidates.

    The caller must guarantee the *dominance contract*: for every item, the
    desirability of every server **not** listed is strictly below the item's
    minimum listed desirability (for GreC, candidate costs strictly below the
    sentinel-cost floor).  Under the contract a feasible candidate hit is
    always the fleet-wide masked-argmax winner; only an item whose whole
    candidate list is out of capacity falls back to a full-width scan over
    rows fetched from ``row_provider`` — those placements (typically none)
    land on non-candidate servers exactly as the full-matrix engine's would.

    Parameters
    ----------
    candidate_servers:
        ``(num_items, K)`` candidate server indices, strictly increasing per
        row (which also guarantees distinctness); ``K >= 2`` so the regret
        (best minus second-best desirability) is defined from the list alone.
    candidate_desirability:
        ``(num_items, K)`` desirability of each listed server, aligned with
        ``candidate_servers``; NaN or ±inf raise ``ValueError``.
    num_servers:
        Fleet size ``m`` (the virtual column count).
    demands / capacities / initial_loads / fallback / fallback_allowed:
        As in :func:`max_regret_assign`.
    row_provider:
        ``row_provider(items) -> (len(items), num_servers)`` full-width
        desirability rows, consistent with ``candidate_desirability`` on the
        listed entries; called only for fall-through items.

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
    cand_idx = _checked_candidates(candidate_servers, num_items, num_servers)
    if cand_val.shape != cand_idx.shape:
        raise ValueError("candidate_desirability must match candidate_servers in shape")
    if demands.shape != (num_items,):
        raise ValueError("demands must have one entry per item")
    if capacities.shape != (num_servers,):
        raise ValueError("capacities must have one entry per server")
    if (demands < 0).any():
        raise ValueError("demands must be non-negative")
    if fallback not in ("least_loaded", "skip"):
        raise ValueError("fallback must be 'least_loaded' or 'skip'")
    if fallback_allowed is not None:
        fallback_allowed = np.asarray(fallback_allowed, dtype=bool)
        if fallback_allowed.shape != (num_servers, num_items):
            raise ValueError(
                f"fallback_allowed must have shape ({num_servers}, {num_items}), "
                f"got {fallback_allowed.shape}"
            )

    loads = np.zeros(num_servers) if initial_loads is None else np.asarray(
        initial_loads, dtype=np.float64
    ).copy()
    if loads.shape != (num_servers,):
        raise ValueError("initial_loads must have one entry per server")

    item_to_server = np.full(num_items, -1, dtype=np.int64)
    if num_items == 0:
        return RegretResult(
            item_to_server=item_to_server, loads=loads, capacity_exceeded=False
        )

    # The rows already arrive in ascending server-id order (the table's
    # contract), and under the dominance contract the list holds each item's
    # two largest desirabilities.
    top, order = _table(cand_idx, cand_val, True)

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
