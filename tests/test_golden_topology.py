"""Generated topologies and their RTT matrices must match the committed golden digests.

See ``tests/golden/topology_corpus.py`` for the grid and how to regenerate
``tests/golden/topology.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.topology_corpus import GOLDEN_PATH, grid, key_name, topology_digests

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_corpus_covers_the_grid():
    assert sorted(GOLDEN) == sorted(key_name(seed, shape) for seed, shape in grid())


@pytest.mark.parametrize(("seed", "shape"), grid(), ids=[key_name(*entry) for entry in grid()])
def test_topology_digests_match_golden(seed, shape):
    assert topology_digests(seed, shape) == GOLDEN[key_name(seed, shape)]
