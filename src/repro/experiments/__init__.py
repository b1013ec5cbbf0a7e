"""Experiment harness: one driver per table / figure of the paper plus extensions.

* ``table1``  — Table 1 (pQoS / utilisation across configurations, incl. MILP).
* ``figure4`` — Figure 4 (delay CDFs).
* ``figure5`` — Figure 5 (correlation sweep).
* ``figure6`` — Figure 6 (clustered distributions).
* ``table3``  — Table 3 (DVE dynamics / churn).
* ``table4``  — Table 4 (imperfect delay estimates).
* ``ablation``, ``baselines``, ``runtime`` — extensions documented in DESIGN.md.

Use :func:`repro.experiments.registry.get_experiment` (or the CLI) to run any
of them by id.
"""

from repro.experiments.config import (
    PAPER_DEFAULT_LABEL,
    PAPER_SMALL_LABELS,
    PAPER_TABLE1_LABELS,
    config_from_label,
    paper_default_config,
    parse_config_label,
)
from repro.experiments.runner import (
    AlgorithmSummary,
    ReplicatedResult,
    RunObservation,
    evaluate_algorithms,
    run_replications,
)

__all__ = [
    "parse_config_label",
    "config_from_label",
    "paper_default_config",
    "PAPER_TABLE1_LABELS",
    "PAPER_SMALL_LABELS",
    "PAPER_DEFAULT_LABEL",
    "run_replications",
    "evaluate_algorithms",
    "ReplicatedResult",
    "AlgorithmSummary",
    "RunObservation",
]
