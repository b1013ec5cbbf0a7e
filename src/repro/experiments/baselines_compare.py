"""Experiment E8 — comparison against related-work baselines (not in the
paper, motivated by its Sections 1-2).

The paper's GreZ-GreC and GreZ-VirC against the delay-oblivious load
balancer (locally distributed cluster partitioning) and the nearest-server
selection (mirrored-architecture style), on every Table 1 configuration.
"""

from __future__ import annotations

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.experiments.config import PAPER_TABLE1_LABELS, ExperimentSpec
from repro.experiments.runner import SweepResult, sweep_labels
from repro.io.tables import format_table

__all__ = ["BASELINES", "format_baseline_comparison"]

DEFAULT_SOLVERS = ("grez-grec", "grez-virc", "nearest-server", "load-balance", "ranz-virc")


def format_baseline_comparison(comparison: SweepResult) -> str:
    """Render the baseline-comparison table."""
    return format_table(
        ["DVE conf."] + comparison.algorithms,
        comparison.panel("pqos"),
        title="Baseline comparison (E8): pQoS per configuration",
    )


#: The baseline comparison on every Table 1 configuration.
BASELINES = ExperimentSpec(
    experiment_id="baselines",
    paper_artifact="(extension)",
    description="Comparison against related-work baselines across configurations",
    execute=sweep_labels,
    format=format_baseline_comparison,
    labels=PAPER_TABLE1_LABELS,
    algorithms=DEFAULT_SOLVERS,
)
