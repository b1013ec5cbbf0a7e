#!/usr/bin/env python
"""Rebalancing policies: how often should the operator re-run the assignment?

Re-executing GreZ-GreC restores interactivity after churn (Table 3), but every
re-execution migrates zones between servers — an operationally disruptive,
bandwidth-hungry event.  This example runs the churn engine
(:class:`repro.dynamics.ChurnSimulator`) under several
:class:`repro.dynamics.RebalancePolicy` triggers to compare them over a
sustained churn workload, and finishes with the sweep refiner
(:func:`repro.core.warm_start_refine`, zone and contact moves) to show how
much headroom is left beyond the one-pass greedy heuristic.

Run with:  python examples/rebalancing_policies.py
"""

from __future__ import annotations

from repro import CAPInstance, DVEConfig, build_scenario, solve_cap
from repro.core import warm_start_refine
from repro.dynamics import ChurnSimulator, ChurnSpec, RebalancePolicy
from repro.io.ascii_plot import sparkline
from repro.io.tables import format_table

EPOCHS = 6
CHURN = ChurnSpec(num_joins=120, num_leaves=120, num_moves=120)

POLICIES = {
    "never rebalance": RebalancePolicy(target_pqos=0.01),
    "repair at 0.90, escalate if needed": RebalancePolicy(target_pqos=0.90, repair_slack=0.10),
    "rebalance below 0.90": RebalancePolicy(target_pqos=0.90, repair_slack=0.0),
    "periodic (every 2 epochs)": RebalancePolicy(target_pqos=0.01, full_rebalance_every=2),
    "always rebalance": RebalancePolicy(target_pqos=1.0, repair_slack=0.0),
}


def compare_policies() -> None:
    config = DVEConfig(correlation=0.0)
    scenario = build_scenario(config, seed=5)

    rows = []
    for name, policy in POLICIES.items():
        records = ChurnSimulator(
            scenario=scenario,
            algorithms=["grez-grec"],
            churn_spec=CHURN,
            seed=17,
            policy=policy,
        ).run(num_epochs=EPOCHS)
        pqos = [r.pqos_adopted for r in records]
        actions = [r.action for r in records]
        rows.append(
            [
                name,
                sum(pqos) / len(pqos),
                min(pqos),
                actions.count("repair"),
                actions.count("rebalance"),
                sparkline(pqos, lo=0.7, hi=1.0),
            ]
        )
    print(
        format_table(
            ["policy", "mean pQoS", "worst epoch", "repairs", "rebalances", "pQoS trend"],
            rows,
            title=(
                f"Rebalancing policies over {EPOCHS} epochs of "
                f"{CHURN.num_joins}/{CHURN.num_leaves}/{CHURN.num_moves} churn "
                f"({config.label}, GreZ-GreC)"
            ),
        )
    )
    print()
    print(
        "Reading the table: doing nothing lets interactivity erode; the threshold\n"
        "policy with a cheap incremental repair keeps pQoS near the target with only\n"
        "a handful of full rebalances; rebalancing every epoch buys little more."
    )
    print()


def local_search_headroom() -> None:
    config = DVEConfig(num_servers=10, num_zones=30, num_clients=400, total_capacity_mbps=200)
    scenario = build_scenario(config, seed=3)
    instance = CAPInstance.from_scenario(scenario)

    rows = []
    for algorithm in ("ranz-virc", "grez-virc", "grez-grec"):
        start = solve_cap(instance, algorithm, seed=0)
        refined = warm_start_refine(instance, start, max_iterations=60, consider_zone_moves=True)
        rows.append(
            [
                algorithm,
                refined.initial_pqos,
                refined.final_pqos,
                refined.iterations,
                refined.runtime_seconds * 1000,
            ]
        )
    print(
        format_table(
            [
                "starting heuristic",
                "pQoS before",
                "pQoS after local search",
                "moves",
                "search (ms)",
            ],
            rows,
            title=f"Local-search headroom on {config.label}",
        )
    )
    print()
    print(
        "The greedy two-phase heuristics leave little on the table: local search\n"
        "recovers a few extra clients when starting from the weaker heuristics but\n"
        "barely moves GreZ-GreC, corroborating the paper's near-optimality result."
    )


def main() -> None:
    compare_policies()
    local_search_headroom()


if __name__ == "__main__":
    main()
