"""High-level BRITE-like topology configuration front end.

The original BRITE tool is driven by a configuration file selecting the model
and its parameters.  :class:`BriteConfig` plays the same role here for the
paper's one model, the two-level hierarchy: a single frozen dataclass that
experiment configurations can embed and hash, with :func:`generate_topology`
building the topology it describes.

The default configuration reproduces the paper's substrate: a 500-node
hierarchical topology with 20 Barabási–Albert AS domains of 25 Waxman routers
each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.barabasi_albert import BarabasiAlbertParams
from repro.topology.graph import Topology
from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.waxman import WaxmanParams
from repro.utils.rng import SeedLike

__all__ = ["BriteConfig", "generate_topology"]


@dataclass(frozen=True)
class BriteConfig:
    """Declarative description of a hierarchical BRITE-like topology.

    Attributes
    ----------
    num_as / routers_per_as:
        Hierarchy shape: ``num_as`` AS domains of ``routers_per_as`` routers.
    waxman_alpha / waxman_beta:
        Waxman parameters for the router level.
    ba_m:
        Barabási–Albert attachment parameter for the AS level.
    """

    num_as: int = 20
    routers_per_as: int = 25
    waxman_alpha: float = 0.15
    waxman_beta: float = 0.2
    ba_m: int = 2

    @property
    def num_nodes(self) -> int:
        """Total node count, ``num_as * routers_per_as``."""
        return self.num_as * self.routers_per_as


def generate_topology(config: BriteConfig | None = None, seed: SeedLike = None) -> Topology:
    """Generate the hierarchical :class:`Topology` a :class:`BriteConfig` describes."""
    config = config or BriteConfig()
    params = HierarchicalParams(
        num_as=config.num_as,
        routers_per_as=config.routers_per_as,
        as_params=BarabasiAlbertParams(m=config.ba_m),
        router_params=WaxmanParams(alpha=config.waxman_alpha, beta=config.waxman_beta),
    )
    return hierarchical_topology(params, seed=seed, name=f"brite-hier-{config.num_nodes}")
