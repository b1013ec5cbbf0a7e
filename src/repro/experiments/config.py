"""Experiment configurations and the paper's ``<m>s-<n>z-<k>c-<P>cp`` notation.

Section 4.2 identifies DVE configurations by the number of servers, zones and
clients plus the total capacity, e.g. ``20s-80z-1000c-500cp``.  This module
parses and produces that notation and holds the four configurations evaluated
in Table 1 together with the default simulation parameters of Section 4.1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional

from repro.topology.delay_backends import DELAY_BACKENDS as _DELAY_BACKENDS
from repro.world.scenario import DVEConfig

__all__ = [
    "ExperimentConfig",
    "apply_delay_backend",
    "parse_config_label",
    "config_from_label",
    "PAPER_TABLE1_LABELS",
    "PAPER_DEFAULT_LABEL",
    "PAPER_SMALL_LABELS",
    "paper_default_config",
    "engine_study_config",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Execution settings shared by every experiment driver.

    This is the *how* of an experiment run (replications, seeding, process
    count), as opposed to the DVE configuration, which is the *what*.  The CLI
    builds one from its flags and the registry translates it into the keyword
    arguments every ``run_*`` driver accepts.

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
        ``"sparse"``; ``None`` keeps each driver's configured default).
        ``"sparse"`` holds O(clients) state by restricting each zone to its
        top-K candidate servers.
    """

    num_runs: int = 3
    seed: int = 0
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

    def run_kwargs(self, supports_workers: bool = True) -> Dict[str, object]:
        """Keyword arguments for an experiment driver's ``run`` callable.

        ``workers`` and ``delay_backend`` are included only when set (and,
        for ``workers``, supported), so drivers and test doubles without the
        knobs keep working untouched.
        """
        kwargs: Dict[str, object] = {"num_runs": self.num_runs, "seed": self.seed}
        if supports_workers and self.workers is not None:
            kwargs["workers"] = self.workers
        if self.delay_backend is not None:
            kwargs["delay_backend"] = self.delay_backend
        return kwargs


def apply_delay_backend(config: DVEConfig, delay_backend: Optional[str]) -> DVEConfig:
    """Override a DVE config's delay backend when one is requested.

    The single threading point every experiment driver uses: ``None`` keeps
    the config untouched (so defaults and explicit configs pass through),
    anything else replaces the config's ``delay_backend`` field.
    """
    if delay_backend is None:
        return config
    return config.with_updates(delay_backend=delay_backend)


_LABEL_RE = re.compile(
    r"^\s*(?P<servers>\d+)s-(?P<zones>\d+)z-(?P<clients>\d+)c-(?P<capacity>\d+(?:\.\d+)?)cp\s*$",
    re.IGNORECASE,
)

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


def engine_study_config(label: str, delay_backend: Optional[str]) -> DVEConfig:
    """The world of the engine studies: Table 3's correlation δ = 0 on ``label``."""
    return apply_delay_backend(config_from_label(label, correlation=0.0), delay_backend)
