"""Golden digests of the generated topologies and their round-trip delay matrices.

Each entry builds one topology and hashes, with sha256, the exact bytes of

* ``edges``, ``latencies``, ``positions`` and ``node_domain`` (``None`` when
  the topology carries no domain labels);
* ``rtt`` — ``round_trip_delays(max_rtt_ms=500)``, the matrix every delay
  model, scenario and replication is sliced from.

Each digest also covers the array's dtype and shape, and the bytes are taken
in C order, so a change of memory layout alone does not move a digest.

The grid is :func:`~repro.topology.brite.generate_topology` over the three
BRITE models (``hierarchical``, ``waxman``, ``barabasi-albert``, at their
500-node defaults) and :func:`~repro.topology.backbone.us_backbone_topology`,
each over three seeds. ``tests/test_golden_topology.py`` asserts the
committed digests; any change to a generator's output or to an all-pairs
delay shows up as a digest mismatch.

Regenerate ``topology.json`` (only when a change of the topologies is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.topology_corpus
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.topology.backbone import us_backbone_topology
from repro.topology.brite import BriteConfig, generate_topology
from repro.topology.graph import Topology

GOLDEN_PATH = Path(__file__).resolve().parent / "topology.json"

SEEDS = (0, 1, 2)
MAX_RTT_MS = 500.0
MODELS = ("hierarchical", "waxman", "barabasi-albert", "us-backbone")


def _array_digest(arr: Optional[np.ndarray]) -> Optional[str]:
    if arr is None:
        return None
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def build(model: str, seed: int) -> Topology:
    """The topology of one grid entry."""
    if model == "us-backbone":
        return us_backbone_topology(seed=seed)
    return generate_topology(BriteConfig(model=model), seed=seed)


def topology_digests(model: str, seed: int) -> Dict[str, Optional[str]]:
    """Digests of one topology's arrays and its scaled RTT matrix."""
    topology = build(model, seed)
    return {
        "edges": _array_digest(topology.edges),
        "latencies": _array_digest(topology.latencies),
        "positions": _array_digest(topology.positions),
        "node_domain": _array_digest(topology.node_domain),
        "rtt": _array_digest(topology.round_trip_delays(max_rtt_ms=MAX_RTT_MS)),
    }


def run_keys():
    """Every ``(model, seed)`` of the grid, in a fixed order."""
    for model in MODELS:
        for seed in SEEDS:
            yield model, seed


def key_name(model: str, seed: int) -> str:
    return f"{model}/seed={seed}"


def main() -> None:
    corpus = {key_name(*key): topology_digests(*key) for key in run_keys()}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} topology digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
