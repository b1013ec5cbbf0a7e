"""Experiment E7 — ablation of the greedy design choices (not in the paper).

The paper's heuristics embody two specific design decisions worth isolating:

1. **Regret ordering** — zones/clients are processed in max-regret order
   (GAP-style) rather than, say, largest-demand-first or arbitrary order.
2. **Static vs dynamic regret** — the paper's pseudocode computes the regrets
   once; the dynamic variant re-evaluates each item's regret over the servers
   that *currently* have room for it after every placement (an item whose
   alternatives are filling up becomes urgent), a well-known strengthening of
   the heuristic at extra cost.

This experiment compares, on the default configuration:

* ``grez-grec``            — the paper's algorithm (static regret),
* ``grez-grec-dynamic``    — feasibility-aware regret after every placement,
* ``ranz-grec``            — no delay awareness in the initial phase,
* ``grez-virc``            — no refined phase,
* ``load-balance``         — no delay awareness at all (pure load balancing),
* ``nearest-server``       — delay awareness without the regret machinery,

which decomposes GreZ-GreC's advantage into its ingredients.
"""

from __future__ import annotations

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import SweepResult, sweep_labels
from repro.io.tables import format_table

__all__ = ["ABLATION", "format_ablation", "DEFAULT_ABLATION_VARIANTS"]

#: Variants compared by the ablation, in report order.
DEFAULT_ABLATION_VARIANTS = (
    "grez-grec",
    "grez-grec-dynamic",
    "grez-ff-grec",
    "grez-bf-grec",
    "grez-grec-ff",
    "grez-virc",
    "grez-ff-virc",
    "ranz-grec",
    "ranz-virc",
    "nearest-server",
    "load-balance",
)


def format_ablation(result: SweepResult) -> str:
    """Render the ablation table: pQoS, utilisation and mean runtime (ms) per variant."""
    (replicated,) = result.results.values()
    rows = [
        [
            name,
            summary.pqos.mean,
            summary.utilization.mean,
            summary.runtime_seconds.mean * 1000.0,
        ]
        for name, summary in replicated.summaries.items()
    ]
    return format_table(
        ["variant", "pQoS", "utilisation", "runtime (ms)"],
        rows,
        title=f"Ablation (E7): design-choice decomposition on {result.label}",
    )


#: The ablation: every variant on the default configuration.
ABLATION = ExperimentSpec(
    experiment_id="ablation",
    paper_artifact="(extension)",
    description="Design-choice ablation of the greedy heuristics",
    execute=sweep_labels,
    format=format_ablation,
    algorithms=DEFAULT_ABLATION_VARIANTS,
)
