"""Federated record streams and final assignments must match the golden digests.

See ``tests/golden/federation_corpus.py`` for the grid and how to regenerate
``tests/golden/federation.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.federation_corpus import GOLDEN_PATH, key_name, run_digests, run_keys

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_corpus_covers_the_grid():
    assert sorted(GOLDEN) == sorted(key_name(*key) for key in run_keys())


@pytest.mark.parametrize("key", list(run_keys()), ids=lambda key: key_name(*key))
def test_federation_digests_match_golden(key, measure_oracle_spy):
    assert run_digests(*key) == GOLDEN[key_name(*key)]
    assert "carried_qos_count" in measure_oracle_spy
