"""Golden digests of the generated topologies and their round-trip delay matrices.

Each entry builds one topology and hashes, with sha256, the exact bytes of

* ``edges``, ``latencies``, ``positions`` and ``node_domain`` (``None`` when
  the topology carries no domain labels);
* ``rtt`` — ``round_trip_delays(max_rtt_ms=500)``, the matrix every delay
  model, scenario and replication is sliced from.

Each digest also covers the array's dtype and shape, and the bytes are taken
in C order, so a change of memory layout alone does not move a digest.

The grid is :func:`~repro.topology.brite.generate_topology` (the paper's
500-node hierarchy) over three seeds.  ``tests/test_golden_topology.py``
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
from typing import Dict, Optional

import numpy as np

from repro.topology.brite import BriteConfig, generate_topology

GOLDEN_PATH = Path(__file__).resolve().parent / "topology.json"

SEEDS = (0, 1, 2)
MAX_RTT_MS = 500.0


def _array_digest(arr: Optional[np.ndarray]) -> Optional[str]:
    if arr is None:
        return None
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def topology_digests(seed: int) -> Dict[str, Optional[str]]:
    """Digests of one topology's arrays and its scaled RTT matrix."""
    topology = generate_topology(BriteConfig(), seed=seed)
    return {
        "edges": _array_digest(topology.edges),
        "latencies": _array_digest(topology.latencies),
        "positions": _array_digest(topology.positions),
        "node_domain": _array_digest(topology.node_domain),
        "rtt": _array_digest(topology.round_trip_delays(max_rtt_ms=MAX_RTT_MS)),
    }


def key_name(seed: int) -> str:
    return f"hierarchical/seed={seed}"


def main() -> None:
    corpus = {key_name(seed): topology_digests(seed) for seed in SEEDS}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} topology digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
