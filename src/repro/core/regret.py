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
* ``backend="vectorized"`` (default) — a batched placement engine.  The
  static mode places items in rounds over a *front window* of the regret
  order: each round validates only the window's choices (an item's best
  feasible server, cached between rounds — loads only ever grow, so a cached
  choice stays the masked-argmax winner until its own server can no longer
  take the item, and an item evaluated for the first time when it reaches
  the window gets exactly the choice an eager cache would hold), then
  per-server prefix sums admit as many claimants per server as its residual
  capacity allows.  The admitted items always form a prefix of the regret
  order, so the rounds replay the loop's placements exactly, and a round
  costs O(window), not O(remaining items).  The dynamic mode maintains each
  item's top-two feasible desirabilities incrementally and re-evaluates only
  the items whose cached best or second-best server just received load,
  instead of re-partitioning every remaining column after every placement.

The static engine re-evaluates a choice through an optional per-item table
of servers (ascending ids) before any full-width scan.  A feasible table hit
that beats the table's minimum is the fleet-wide winner whenever every
server outside the table is no more desirable than that minimum; ties at
the minimum fall through to the full scan.  The table is either each item's
top-64 servers (wide fleets) or a caller's candidate sets
(``candidate_servers``, e.g. GreZ's zone candidates on the sparse delay
backend, whose non-candidates all sit at the zone-population floor).
:func:`max_regret_assign_candidates` uses a *strictly* dominant candidate
table, so there a feasible hit is always final.

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

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.arena import EpochArena

_tls = threading.local()


def _solver_arena() -> EpochArena:
    """Per-thread scratch arena for the solver's candidate tables.

    The vectorized backend rebuilds the same row-major desirability table
    (``items x servers``) on every solve; a churn session re-solves every
    epoch, so that table is recurring scratch in the sense of
    :class:`~repro.utils.arena.EpochArena`.  Solvers may run on executor
    worker threads (the parallel replication runtime), and the arena is not
    thread-safe, so each thread keeps its own.
    """
    arena = getattr(_tls, "arena", None)
    if arena is None:
        arena = _tls.arena = EpochArena()
    return arena

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

#: Unit roundoff of float64 (half the machine epsilon).
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0

#: Smallest front window the static rounds validate and scan.
_MIN_WINDOW = 128

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
# Vectorized backend, static mode — batched rounds over the regret order.
# --------------------------------------------------------------------------- #
def _table(table_idx: np.ndarray, table_val: np.ndarray):
    """Re-evaluation table and static regret order from per-item server sets.

    ``table_idx`` lists, per item, servers in ascending id order whose
    desirabilities ``table_val`` are the item's largest: every unlisted
    server is no more desirable than the smallest listed one.  The set's two
    largest values are then the two largest of the full row — the exact
    values :func:`regret_order` would partition out of the whole matrix — so
    the regret order falls out of a cheap in-set partition.
    """
    width = table_idx.shape[1]
    top_two = np.partition(table_val, width - 2, axis=1)[:, -2:]
    regrets = top_two[:, 1] - top_two[:, 0]
    order = np.argsort(-regrets, kind="stable").astype(np.int64)
    return (table_idx.astype(np.int32), table_val, table_val.min(axis=1)), order


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
    """Static placement over the full matrix: build the table, run the rounds.

    Re-evaluation is a masked argmax over a *row-major* copy of the
    desirability matrix: each stale batch gathers whole per-item rows
    (contiguous in memory) instead of strided columns of the
    (servers x items) input.  ``argmax(axis=1)`` returns the first maximum —
    the lowest server index — exactly the column-argmax tie rule.

    The re-evaluation table (see :func:`_static_rounds`) comes from
    ``candidate_servers`` when given; otherwise, on fleets wider than
    ``2 * _TOP_T``, from each item's top-``_TOP_T`` servers by desirability
    (an ``argpartition`` over the fleet — boundary-tied subsets it picks
    arbitrarily can never change a placement, because ties at the table
    minimum fall through to the full scan).
    """
    num_servers, num_items = desirability.shape
    if num_items == 0:
        return False

    # Row-major per-item view: stale re-evaluations gather contiguous rows.
    # The transpose copy lands in recycled per-thread scratch instead of a
    # fresh allocation each solve (single borrower: the table lives only for
    # this solve, and solves never nest on one thread).
    arena = _solver_arena()
    des_items = arena.scratch(
        "regret_des_items", num_items * num_servers, dtype=desirability.dtype
    ).reshape(num_items, num_servers)
    np.copyto(des_items, desirability.T)

    top = None
    table_idx = candidate_servers
    if table_idx is None and num_servers > 2 * _TOP_T:
        part_idx = np.argpartition(des_items, num_servers - _TOP_T, axis=1)[:, -_TOP_T:]
        table_idx = np.sort(part_idx, axis=1)
    if table_idx is not None:
        table_val = des_items[np.arange(num_items)[:, None], table_idx]
        top, order = _table(table_idx, table_val)
    else:
        order = regret_order(desirability)

    def get_rows(cols: np.ndarray, servers: Optional[np.ndarray]) -> np.ndarray:
        if servers is None:
            return des_items[cols]
        return des_items[np.ix_(cols, servers)]

    return _static_rounds(
        demands, capacities, loads, item_to_server, fallback, fallback_allowed,
        order, top, False, get_rows,
    )


def _best_feasible(
    cols: np.ndarray,
    d_cols: np.ndarray,
    loads: np.ndarray,
    cap_eps: np.ndarray,
    top: Optional[tuple],
    tier_complete: bool,
    get_rows,
) -> np.ndarray:
    """Each item's most desirable server that can take its demand now (-1: none).

    The masked argmax (first maximum = lowest server id, the loop's stable
    preference walk) under the loop's feasibility test
    ``loads + demand <= capacities + eps``.  Items are first looked up in the
    re-evaluation table ``top``; the rest take a full-width scan.
    """
    best = np.full(cols.size, -1, dtype=np.int64)
    rest = None
    if top is not None:
        top_idx, top_val, top_thresh = top
        # Fast tier: masked argmax over the item's table row (first maximum =
        # lowest server id, the full scan's tie rule).  Final when it beats
        # the row minimum (always, for a complete table); the rest of the
        # batch takes the full scan below.
        tier_idx = top_idx[cols]
        tier_ok = loads[tier_idx] + d_cols[:, None] <= cap_eps[tier_idx]
        masked = np.where(tier_ok, top_val[cols], -np.inf)
        pos = masked.argmax(axis=1)
        rows = np.arange(cols.size)
        vbest = masked[rows, pos]
        if tier_complete:
            # Every table value is >= the item's threshold and every outside
            # server is strictly below it: found == resolved.
            resolved = np.logical_not(np.isneginf(vbest))
        else:
            resolved = vbest > top_thresh[cols]
        best[resolved] = tier_idx[rows[resolved], pos[resolved]]
        rest = np.flatnonzero(~resolved)
        cols, d_cols = cols[rest], d_cols[rest]
    if cols.size:
        # Prune servers no item in the batch could use: the feasibility test
        # is monotone in the demand operand, so a server that cannot take the
        # batch's smallest demand is infeasible for every item in it.  Late
        # rounds — where the re-evaluations concentrate — scan only the
        # servers still open.
        open_srv = np.flatnonzero(loads + d_cols.min() <= cap_eps)
        if open_srv.size == 0:
            return best
        if open_srv.size == loads.size:
            feasible = loads[None, :] + d_cols[:, None] <= cap_eps[None, :]
            masked = np.where(feasible, get_rows(cols, None), -np.inf)
        else:
            feasible = (
                loads[open_srv][None, :] + d_cols[:, None] <= cap_eps[open_srv][None, :]
            )
            masked = np.where(feasible, get_rows(cols, open_srv), -np.inf)
        choice = masked.argmax(axis=1)  # first max == lowest (open) index
        none_left = np.isneginf(masked[np.arange(cols.size), choice])
        if open_srv.size != loads.size:
            choice = open_srv[choice]
        found = np.where(none_left, -1, choice)
        if rest is None:
            best = found
        else:
            best[rest] = found
    return best


def _first_rejection(
    servers: np.ndarray, claim_d: np.ndarray, loads: np.ndarray, cap_eps: np.ndarray
) -> int:
    """Index of the first claim the sequential scan would reject, else ``len``.

    The loop places claims one at a time and tests each against its server's
    running load, ``((loads + d1) + d2) + ... <= capacities + eps``.  Here
    every claim's running load comes from one stable sort by server and a
    global cumsum.  A group's first claim is tested exactly as ``loads + d``
    (the test its validation passed, so the head of the order always makes
    progress).  A later claim's prefix sum can round differently from the
    sequential sum; when it lands within a rigorous rounding bound of the
    capacity, it is re-checked with the sequential sum itself.  Such claims
    need a server filled to within rounding distance of its capacity, and
    only those ahead of the first certain rejection are re-checked.
    """
    num = servers.size
    if num == 0:
        return 0
    by_server = np.argsort(servers, kind="stable")
    srv_sorted = servers[by_server]
    d_sorted = claim_d[by_server]
    csum = np.cumsum(d_sorted)
    group_first = np.empty(num, dtype=bool)
    group_first[0] = True
    np.not_equal(srv_sorted[1:], srv_sorted[:-1], out=group_first[1:])
    heads = np.flatnonzero(group_first)
    # Prefix sum of each group up to and including the claim; csum is
    # nondecreasing, so a running maximum carries each group's base forward.
    base = np.zeros(num)
    base[heads[1:]] = csum[heads[1:] - 1]
    np.maximum.accumulate(base, out=base)
    within = csum - base
    within[heads] = d_sorted[heads]
    base_load = loads[srv_sorted]
    load_after = base_load + within
    slack = cap_eps[srv_sorted] - load_after
    ok = slack >= 0.0
    # |load_after - sequential sum| <= (3k + 6) u (csum[k] + load) for the
    # claim at sorted position k (forward error of the cumsum, the
    # subtraction, the load addition and the sequential sum); one bound for
    # the whole window, 4 (num + 1) u (csum[-1] + max load), covers them all.
    # (A group head is exact, so re-checking one never changes its verdict.)
    bound = 4.0 * _UNIT_ROUNDOFF * (num + 1) * (float(csum[-1]) + float(base_load.max()))
    unsure = np.abs(slack) <= bound
    if not unsure.any():
        if ok.all():
            return num
        return int(by_server[~ok].min())
    attention = np.flatnonzero(~ok | unsure)
    attention = attention[np.argsort(by_server[attention])]
    for k in attention.tolist():
        if unsure[k]:
            head = int(heads[np.searchsorted(heads, k, side="right") - 1])
            seq = float(base_load[k])
            for d in d_sorted[head:k + 1].tolist():
                seq += d
            if seq <= cap_eps[srv_sorted[k]]:
                continue
        return int(by_server[k])
    return num


def _static_rounds(
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    fallback_allowed: Optional[np.ndarray],
    order: np.ndarray,
    top: Optional[tuple],
    tier_complete: bool,
    get_rows,
) -> bool:
    """The static placement rounds shared by the full-matrix and candidate paths.

    Items are placed in regret order ``order``.  Each item's best feasible
    server is cached per position (``-2``: not evaluated yet, ``-1``: no
    feasible server left — final, since loads only grow).  A round works on
    a front window ``[start, start + W)`` only:

    1. *Validate* the window: evaluate never-evaluated entries and re-evaluate
       those whose cached server can no longer take the item's demand.  A
       cached choice whose server still fits is exact: the feasible set only
       shrinks, and the first maximum of a shrinking set that still holds the
       previous winner is that winner.  The same argument makes a lazy first
       evaluation equal to what an eager cache would hold by now.
    2. *Admit*: claimants of one server are admitted in order while their
       running demand fits (:func:`_first_rejection`); the first rejected
       claim ends the round's admitted prefix — a rejected item would fall to
       another server in the loop and disturb every later placement.  Under
       ``fallback="least_loaded"`` an item with no feasible server ends the
       scan too and is placed by the fallback at its exact position; under
       ``"skip"`` such items pass through (never loaded, not compacted).
    3. A window that admits fully, with no block and no rejection, grows
       ×8: only the newly exposed positions are validated (loads have not
       changed), and the scan reruns.  A claim's within-group prefix only
       involves earlier claims of its own server, so the window never
       changes a decision.

    ``W`` starts at ``max(_MIN_WINDOW, 2 * last admitted count)``, so a
    round costs O(W log W) instead of O(remaining items).  Loads are
    accumulated with ``np.add.at`` in placement order, so even the
    floating-point addition order matches the loop.

    ``top`` is the optional ``(top_idx, top_val, top_thresh)`` re-evaluation
    table, rows in ascending server-id order, every unlisted server no more
    desirable than ``top_thresh``; ``tier_complete`` asserts every unlisted
    server is *strictly* below it (the candidate-list entry point guarantees
    this), in which case a feasible table hit is final and the tie
    fall-through is skipped.  ``get_rows(cols, servers)`` materialises
    full-width desirability rows for the fall-through scan (``servers=None``
    means all of them).
    """
    capacity_exceeded = False
    num_items = order.size
    cap_eps = capacities + _CAP_EPS
    skip = fallback == "skip"
    cached = np.full(num_items, -2, dtype=np.int64)
    d_ord = demands[order]

    def validate(lo: int, hi: int) -> None:
        choice = cached[lo:hi]  # a view: refreshed in place
        d_win = d_ord[lo:hi]
        srv = np.where(choice >= 0, choice, 0)
        stale = (choice == -2) | (
            (choice >= 0) & (loads[srv] + d_win > cap_eps[srv])
        )
        if stale.any():
            choice[stale] = _best_feasible(
                order[lo:hi][stale], d_win[stale], loads, cap_eps, top,
                tier_complete, get_rows,
            )

    start = 0
    window = _MIN_WINDOW
    while start < num_items:
        hi = min(num_items, start + window)
        validate(start, hi)
        while True:
            choice = cached[start:hi]
            size = hi - start
            unplaceable = choice < 0
            if not unplaceable.any():
                n_admit = _first_rejection(choice, d_ord[start:hi], loads, cap_eps)
            elif skip:
                claims = np.flatnonzero(~unplaceable)
                k = _first_rejection(
                    choice[claims], d_ord[start:hi][claims], loads, cap_eps
                )
                n_admit = size if k == claims.size else int(claims[k])
            else:
                stop = int(unplaceable.argmax())
                n_admit = _first_rejection(
                    choice[:stop], d_ord[start:start + stop], loads, cap_eps
                )
            if n_admit < size or hi == num_items:
                break
            grown = min(num_items, start + 8 * size)
            validate(hi, grown)
            hi = grown

        if n_admit:
            servers = cached[start:start + n_admit]
            items = order[start:start + n_admit]
            d_admit = d_ord[start:start + n_admit]
            if skip:
                placed = servers >= 0
                if not placed.all():
                    servers, items, d_admit = servers[placed], items[placed], d_admit[placed]
            item_to_server[items] = servers
            # np.add.at applies the additions one index at a time, in the
            # order given — i.e. in placement order, like the loop.
            np.add.at(loads, servers, d_admit)
        start += n_admit
        window = max(_MIN_WINDOW, 2 * n_admit)

        if not skip and start < num_items and cached[start] == -1:
            # The next item in order fits nowhere (true at round start, hence
            # still true now): apply the least_loaded fallback at its exact
            # sequential position, then go on with the rest next round.
            item = int(order[start])
            allowed = None if fallback_allowed is None else fallback_allowed[:, item]
            server = _fallback_server(capacities, loads, allowed)
            item_to_server[item] = server
            loads[server] += demands[item]
            capacity_exceeded = True
            start += 1

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
        Values must be finite: ``-inf`` is reserved as the backends' internal
        infeasibility mask (the library's cost matrices are always finite).
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
        ``(num_items, K)`` desirability of each listed server, finite,
        aligned with ``candidate_servers``.
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
    top, order = _table(cand_idx, cand_val)

    def get_rows(cols: np.ndarray, servers: Optional[np.ndarray]) -> np.ndarray:
        rows = np.asarray(row_provider(cols), dtype=np.float64)
        if rows.shape != (cols.size, num_servers):
            raise ValueError(
                f"row_provider must return ({cols.size}, {num_servers}) rows, "
                f"got {rows.shape}"
            )
        if servers is None:
            return rows
        return rows[:, servers]

    capacity_exceeded = _static_rounds(
        demands, capacities, loads, item_to_server, fallback, fallback_allowed,
        order, top, True, get_rows,
    )
    return RegretResult(
        item_to_server=item_to_server,
        loads=loads,
        capacity_exceeded=capacity_exceeded,
    )
