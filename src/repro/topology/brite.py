"""High-level BRITE-like topology configuration front end.

The original BRITE tool is driven by a configuration file selecting the model
(flat Waxman, flat Barabási–Albert, or two-level hierarchical) and its
parameters.  :class:`BriteConfig` plays the same role here: a single frozen
dataclass that experiment configurations can embed and hash, with
:func:`generate_topology` dispatching to the concrete generators.

The default configuration reproduces the paper's substrate: a 500-node
hierarchical topology with 20 Barabási–Albert AS domains of 25 Waxman routers
each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.barabasi_albert import BarabasiAlbertParams, barabasi_albert_topology
from repro.topology.graph import Topology
from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.waxman import WaxmanParams, waxman_topology
from repro.utils.rng import SeedLike

__all__ = ["BriteConfig", "generate_topology"]

_VALID_MODELS = ("hierarchical", "waxman", "barabasi-albert")


@dataclass(frozen=True)
class BriteConfig:
    """Declarative description of a synthetic topology.

    Attributes
    ----------
    model:
        One of ``"hierarchical"`` (default, the paper's setting), ``"waxman"``
        or ``"barabasi-albert"``.
    num_nodes:
        Total node count.  For the hierarchical model this must equal
        ``num_as * routers_per_as``.
    num_as / routers_per_as:
        Hierarchy shape (ignored by the flat models).
    waxman_alpha / waxman_beta:
        Waxman parameters for the router level (or the whole flat graph).
    ba_m:
        Barabási–Albert attachment parameter for the AS level (or the whole
        flat graph).
    """

    model: str = "hierarchical"
    num_nodes: int = 500
    num_as: int = 20
    routers_per_as: int = 25
    waxman_alpha: float = 0.15
    waxman_beta: float = 0.2
    ba_m: int = 2

    def __post_init__(self) -> None:
        if self.model not in _VALID_MODELS:
            raise ValueError(f"model must be one of {_VALID_MODELS}, got {self.model!r}")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.model == "hierarchical" and self.num_nodes != self.num_as * self.routers_per_as:
            raise ValueError(
                "for the hierarchical model num_nodes must equal num_as * routers_per_as "
                f"({self.num_as} * {self.routers_per_as} != {self.num_nodes})"
            )

    def describe(self) -> str:
        """One-line human-readable description (used in logs and reports)."""
        if self.model == "hierarchical":
            return (
                f"hierarchical BRITE-like topology: {self.num_as} AS (Barabási–Albert, m="
                f"{self.ba_m}) × {self.routers_per_as} routers (Waxman, alpha="
                f"{self.waxman_alpha}, beta={self.waxman_beta}) = {self.num_nodes} nodes"
            )
        return f"flat {self.model} topology with {self.num_nodes} nodes"


def generate_topology(config: BriteConfig | None = None, seed: SeedLike = None) -> Topology:
    """Generate a :class:`Topology` from a :class:`BriteConfig`."""
    config = config or BriteConfig()
    if config.model == "hierarchical":
        params = HierarchicalParams(
            num_as=config.num_as,
            routers_per_as=config.routers_per_as,
            as_params=BarabasiAlbertParams(m=config.ba_m),
            router_params=WaxmanParams(alpha=config.waxman_alpha, beta=config.waxman_beta),
        )
        return hierarchical_topology(params, seed=seed, name=f"brite-hier-{config.num_nodes}")
    if config.model == "waxman":
        return waxman_topology(
            config.num_nodes,
            params=WaxmanParams(alpha=config.waxman_alpha, beta=config.waxman_beta),
            seed=seed,
            name=f"brite-waxman-{config.num_nodes}",
        )
    # barabasi-albert
    return barabasi_albert_topology(
        config.num_nodes,
        params=BarabasiAlbertParams(m=config.ba_m),
        seed=seed,
        name=f"brite-ba-{config.num_nodes}",
    )
