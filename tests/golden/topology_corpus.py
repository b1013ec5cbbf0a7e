"""Golden digests of the generated topologies and their round-trip delay matrices.

Each entry builds one topology and hashes, with sha256, the exact bytes of

* ``edges``, ``latencies``, ``positions`` and ``node_domain`` (``None`` when
  the topology carries no domain labels);
* ``rtt`` — ``round_trip_delays()`` (largest RTT 500 ms), the matrix every delay
  model, scenario and replication is sliced from.

Each digest also covers the array's dtype and shape, and the bytes are taken
in C order, so a change of memory layout alone does not move a digest.

The grid is :func:`~repro.topology.brite.generate_topology` over three
seeds for the paper's 500-node hierarchy (20 ASes of 25 routers) and for
three other shapes: a single router (1 x 1), a small hierarchy (6 x 5) and
a few large ASes (3 x 40).  ``tests/test_golden_topology.py``
asserts the committed digests; any change to a generator's output or to an
all-pairs delay shows up as a digest mismatch.

Regenerate ``topology.json`` (only when a change of the topologies is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.topology_corpus
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.topology.brite import BriteConfig, generate_topology

GOLDEN_PATH = Path(__file__).resolve().parent / "topology.json"

SEEDS = (0, 1, 2)
#: ``(num_as, routers_per_as)`` shapes besides the paper's 20 x 25.
SHAPES = ((1, 1), (6, 5), (3, 40))


def _array_digest(arr: Optional[np.ndarray]) -> Optional[str]:
    if arr is None:
        return None
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def topology_digests(
    seed: int, shape: Optional[Tuple[int, int]] = None
) -> Dict[str, Optional[str]]:
    """Digests of one topology's arrays and its scaled RTT matrix.

    ``shape`` is ``(num_as, routers_per_as)``; ``None`` is the paper's.
    """
    config = BriteConfig() if shape is None else BriteConfig(*shape)
    topology = generate_topology(config, seed=seed)
    return {
        "edges": _array_digest(topology.edges),
        "latencies": _array_digest(topology.latencies),
        "positions": _array_digest(topology.positions),
        "node_domain": _array_digest(topology.node_domain),
        "rtt": _array_digest(topology.round_trip_delays()),
    }


def key_name(seed: int, shape: Optional[Tuple[int, int]] = None) -> str:
    if shape is None:
        return f"hierarchical/seed={seed}"
    return f"hierarchical/{shape[0]}x{shape[1]}/seed={seed}"


def grid() -> List[Tuple[int, Optional[Tuple[int, int]]]]:
    """Every ``(seed, shape)`` entry of the corpus."""
    return [(seed, shape) for shape in (None, *SHAPES) for seed in SEEDS]


def main() -> None:
    corpus = {key_name(seed, shape): topology_digests(seed, shape) for seed, shape in grid()}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} topology digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
