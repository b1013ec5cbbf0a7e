#!/usr/bin/env python
"""MMOG shard planning: place a game world's zones onto rented edge servers.

Scenario (the workload the paper's introduction motivates): an MMOG operator
rents 20 geographically distributed servers to host an 80-zone world for ~1000
concurrent players.  Players cluster in a handful of "hot" zones (cities,
raid areas) and log in from a few geographic regions; the operator wants to
know which zones to host where, which players to connect through which edge
server, and how much bandwidth headroom remains on every machine.

The example compares the naive deployments an operator might try first
(load-balanced partitioning, nearest-server selection) with the paper's
GreZ-GreC two-phase assignment, then prints a per-server capacity plan.

Run with:  python examples/mmog_shard_planning.py
"""

from __future__ import annotations

import numpy as np

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro import CAPInstance, DVEConfig, build_scenario, qos_report
from repro.core.registry import solve as solve_named
from repro.io.tables import format_table
from repro.world.servers import MBPS


def main() -> None:
    # An evening-peak world: hot zones hold ~10x the population of quiet zones,
    # players log in from clustered regions, and regional players gravitate to
    # the same zones (correlation 0.7).
    config = DVEConfig(
        num_servers=20,
        num_zones=80,
        num_clients=1000,
        total_capacity_mbps=500.0,
        delay_bound_ms=250.0,
        correlation=0.7,
        physical_distribution="clustered",
        virtual_distribution="clustered",
    )
    scenario = build_scenario(config, seed=2024)
    instance = CAPInstance.from_scenario(scenario)

    print(f"Planning shards for {config.label} (clustered players, delta = 0.7)\n")

    # ----------------------------------------------------------------- #
    # 1. Compare deployment strategies.
    # ----------------------------------------------------------------- #
    strategies = {
        "load-balance": "balance bandwidth, ignore delays (classic partitioner)",
        "nearest-server": "host each zone near its players (mirrored-style)",
        "grez-virc": "paper: greedy zones, direct connections",
        "grez-grec": "paper: greedy zones + greedy contact servers",
    }
    rows = []
    assignments = {}
    for name, description in strategies.items():
        assignment = solve_named(instance, name, seed=0)
        assignments[name] = assignment
        report = qos_report(instance, assignment)
        rows.append(
            [
                name,
                report.pqos,
                report.p95_delay_ms,
                report.forwarded_fraction,
                assignment.resource_utilization(instance),
                description,
            ]
        )
    print(
        format_table(
            ["strategy", "pQoS", "p95 delay (ms)", "forwarded", "utilisation", "notes"],
            rows,
            title="Deployment strategies compared",
        )
    )
    print()

    # ----------------------------------------------------------------- #
    # 2. Per-server capacity plan for the chosen strategy.
    # ----------------------------------------------------------------- #
    chosen = assignments["grez-grec"]
    loads = chosen.server_loads(instance)
    capacities = instance.server_capacities
    zone_counts = np.bincount(chosen.zone_to_server, minlength=instance.num_servers)
    contact_counts = np.bincount(chosen.contact_of_client, minlength=instance.num_servers)
    plan_rows = []
    for server in range(instance.num_servers):
        plan_rows.append(
            [
                f"s{server:02d}",
                int(zone_counts[server]),
                int(contact_counts[server]),
                loads[server] / MBPS,
                capacities[server] / MBPS,
                loads[server] / capacities[server],
            ]
        )
    plan_rows.sort(key=lambda row: -row[5])
    print(
        format_table(
            [
                "server",
                "zones hosted",
                "clients connected",
                "load (Mbps)",
                "capacity (Mbps)",
                "utilisation",
            ],
            plan_rows,
            title="Per-server capacity plan (GreZ-GreC), busiest first",
        )
    )
    print()

    # ----------------------------------------------------------------- #
    # 3. Where do the remaining QoS misses come from?
    # ----------------------------------------------------------------- #
    delays = chosen.client_delays(instance)
    misses = np.flatnonzero(delays > instance.delay_bound)
    if misses.size:
        worst_zones = np.bincount(
            instance.client_zones[misses], minlength=instance.num_zones
        )
        top = np.argsort(-worst_zones)[:5]
        rows = [
            [f"z{zone:02d}", int(worst_zones[zone]), int(instance.zone_populations()[zone])]
            for zone in top
            if worst_zones[zone]
        ]
        print(
            format_table(
                ["zone", "players without QoS", "zone population"],
                rows,
                title=f"Zones driving the remaining {misses.size} QoS misses",
            )
        )
    else:
        print("Every player meets the 250 ms interactivity bound.")


if __name__ == "__main__":
    main()
