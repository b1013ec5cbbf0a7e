"""Experiment specs, execution settings and the paper's ``<m>s-<n>z-<k>c-<P>cp`` notation.

Every experiment is one :class:`ExperimentSpec` value (what it runs) and
runs through one entry point, :func:`run`, under an
:class:`ExperimentConfig` (how: replications, seed, processes, delay
backend).  Tests and the benchmarks shrink an experiment with
``dataclasses.replace(spec, ...)``.

Section 4.2 identifies DVE configurations by the number of servers, zones and
clients plus the total capacity, e.g. ``20s-80z-1000c-500cp``.  This module
parses and produces that notation and holds the four configurations evaluated
in Table 1 together with the default simulation parameters of Section 4.1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.topology.delay_backends import DELAY_BACKENDS as _DELAY_BACKENDS
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEConfig

if TYPE_CHECKING:
    from repro.dynamics.churn import ChurnSpec

__all__ = [
    "ExperimentConfig",
    "ExperimentSpec",
    "run",
    "apply_delay_backend",
    "parse_config_label",
    "config_from_label",
    "PAPER_TABLE1_LABELS",
    "PAPER_DEFAULT_LABEL",
    "PAPER_SMALL_LABELS",
    "paper_default_config",
    "engine_study_config",
]


#: The four DVE configurations of the paper's Table 1, in row order.
PAPER_TABLE1_LABELS: tuple[str, ...] = (
    "5s-15z-200c-100cp",
    "10s-30z-400c-200cp",
    "20s-80z-1000c-500cp",
    "30s-160z-2000c-1000cp",
)

#: The two configurations small enough for the exact MILP baseline.
PAPER_SMALL_LABELS: tuple[str, ...] = PAPER_TABLE1_LABELS[:2]

#: The default configuration used by most other experiments.
PAPER_DEFAULT_LABEL: str = "20s-80z-1000c-500cp"


@dataclass(frozen=True)
class ExperimentConfig:
    """Execution settings shared by every experiment.

    This is the *how* of an experiment run (replications, seeding, process
    count), as opposed to the :class:`ExperimentSpec`, which is the *what*.
    The CLI builds one from its flags and hands it to :func:`run`.

    Attributes
    ----------
    num_runs:
        Simulation runs to average over (the paper uses 50).
    seed:
        Master RNG seed; every run derives an independent sub-stream.
    workers:
        Worker processes for the replication engine: ``None``/``1`` serial,
        ``0`` one per available CPU, ``n`` exactly ``n`` processes.
    delay_backend:
        Delay backend every scenario is built with (``"dense"`` /
        ``"sparse"``; ``None`` keeps each world's configured default).
        ``"sparse"`` holds O(clients) state by restricting each zone to its
        top-K candidate servers.
    """

    num_runs: int = 3
    seed: SeedLike = 0
    workers: Optional[int] = None
    delay_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {self.num_runs}")
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = all CPUs), got {self.workers}")
        if self.delay_backend is not None and self.delay_backend not in _DELAY_BACKENDS:
            raise ValueError(
                f"delay_backend must be one of {_DELAY_BACKENDS}, got {self.delay_backend!r}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment as a value: what it runs and how its result renders.

    Each concept has one field, whichever experiment uses it; an experiment
    ignores the fields it has no use for.

    Attributes
    ----------
    experiment_id / paper_artifact / description:
        The id the CLI takes, the paper's table or figure, a one-line summary.
    execute:
        The experiment's body, ``execute(spec, worlds, config)``: ``worlds``
        holds the DVE configuration of each label, built by :func:`run`.
    format:
        Renders the result as printable text.
    labels:
        The world label, or the configurations an experiment compares.
    algorithms:
        The registered solvers compared (the ablation's variants).
    sweep:
        The one swept axis: error factors, correlations, distribution types,
        delay bounds (ms), scenario names, controller policy names or arbiters.
    exact_labels:
        The labels on which the exact MILP runs too.
    share_topology:
        Reuse one topology sample across the runs of each world.
    num_epochs / churn:
        An engine study's epochs per run and per-epoch client churn.
    policy:
        The repair policy the dynamics study applies every epoch.
    num_shards:
        Shards the federation study splits the world into.
    supports_workers:
        ``False`` for the runtime study, which always runs serially:
        wall-clock timings on a contended process pool would be meaningless.
    """

    experiment_id: str
    paper_artifact: str
    description: str
    execute: Callable[[ExperimentSpec, Tuple[DVEConfig, ...], ExperimentConfig], object]
    format: Callable[[object], str]
    labels: Tuple[str, ...] = (PAPER_DEFAULT_LABEL,)
    algorithms: Tuple[str, ...] = PAPER_ALGORITHM_ORDER
    sweep: Tuple[object, ...] = ()
    exact_labels: Tuple[str, ...] = ()
    share_topology: bool = True
    num_epochs: int = 0
    churn: Optional[ChurnSpec] = None
    policy: str = "reexecute"
    num_shards: int = 0
    supports_workers: bool = True


def run(spec: ExperimentSpec, config: ExperimentConfig) -> object:
    """Run one experiment under the given execution settings.

    The one place an experiment's worlds are built: each label's DVE
    configuration with ``config.delay_backend`` applied.  A spec that does
    not support workers runs serially whatever ``config.workers`` says.
    """
    worlds = tuple(
        apply_delay_backend(config_from_label(label), config.delay_backend) for label in spec.labels
    )
    if not spec.supports_workers:
        config = replace(config, workers=None)
    return spec.execute(spec, worlds, config)


def apply_delay_backend(config: DVEConfig, delay_backend: Optional[str]) -> DVEConfig:
    """Override a DVE config's delay backend when one is requested.

    ``None`` keeps the config untouched (so defaults and explicit configs
    pass through), anything else replaces the config's ``delay_backend``
    field.
    """
    if delay_backend is None:
        return config
    return config.with_updates(delay_backend=delay_backend)


_LABEL_RE = re.compile(
    r"^\s*(?P<servers>\d+)s-(?P<zones>\d+)z-(?P<clients>\d+)c-(?P<capacity>\d+(?:\.\d+)?)cp\s*$",
    re.IGNORECASE,
)

def parse_config_label(label: str) -> Dict[str, float]:
    """Parse a ``<m>s-<n>z-<k>c-<P>cp`` label into its four numbers.

    Returns a dict with keys ``num_servers``, ``num_zones``, ``num_clients``
    and ``total_capacity_mbps``.
    """
    match = _LABEL_RE.match(label)
    if not match:
        raise ValueError(
            f"cannot parse DVE configuration label {label!r}; expected e.g. '20s-80z-1000c-500cp'"
        )
    return {
        "num_servers": int(match.group("servers")),
        "num_zones": int(match.group("zones")),
        "num_clients": int(match.group("clients")),
        "total_capacity_mbps": float(match.group("capacity")),
    }


def config_from_label(label: str, **overrides) -> DVEConfig:
    """Build a :class:`~repro.world.scenario.DVEConfig` from a label.

    All other parameters take the paper's Section 4.1 defaults and can be
    overridden by keyword (e.g. ``correlation=0.0`` or
    ``delay_bound_ms=200.0``).
    """
    parsed = parse_config_label(label)
    parsed.update(overrides)
    return DVEConfig(**parsed)


def paper_default_config(**overrides) -> DVEConfig:
    """The paper's default configuration (20s-80z-1000c-500cp)."""
    return config_from_label(PAPER_DEFAULT_LABEL, **overrides)


def engine_study_config(world: DVEConfig) -> DVEConfig:
    """The world of the engine studies: ``world`` with Table 3's correlation δ = 0."""
    return world.with_updates(correlation=0.0)
