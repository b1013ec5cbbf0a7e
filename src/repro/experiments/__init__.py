"""Experiment harness: one spec per table / figure of the paper plus extensions.

* ``table1``  — Table 1 (pQoS / utilisation across configurations, incl. MILP).
* ``figure4`` — Figure 4 (delay CDFs).
* ``figure5`` — Figure 5 (correlation sweep).
* ``figure6`` — Figure 6 (clustered distributions).
* ``table3``  — Table 3 (DVE dynamics / churn).
* ``table4``  — Table 4 (imperfect delay estimates).
* ``ablation``, ``baselines``, ``delay-bound``, ``runtime`` — static extensions.
* ``dynamics``, ``scenarios``, ``controller``, ``federation`` — engine studies:
  longitudinal churn, incident recovery, rebalance triggers and cross-shard
  capacity arbiters.

Each module defines its experiment as one
:class:`~repro.experiments.config.ExperimentSpec` value (``table1.TABLE1``,
...), and :data:`repro.experiments.registry.EXPERIMENTS` collects them by id.
Any of them runs through one entry point,
:func:`repro.experiments.config.run`, under an
:class:`~repro.experiments.config.ExperimentConfig` (or through the CLI's
``experiment`` command); shrink one with ``dataclasses.replace(spec, ...)``.

Every replicated experiment fans its runs out through
:func:`repro.experiments.runner.replicate`.  The static sweeps aggregate them
with :func:`~repro.experiments.runner.run_sweep`.  Table 3 and the engine
studies aggregate them into a :class:`~repro.experiments.runner.StudyResult`.
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
