"""The churn engine's streams must match the committed golden digests.

Every run is also checked by ``measure_oracle_spy``: each measurement the
engine makes must equal its full recompute.

See ``tests/golden/engine_corpus.py`` for the grid and how to regenerate
``tests/golden/engine.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.engine_corpus import GOLDEN_PATH, key_name, run_digests, run_keys

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_corpus_covers_the_grid():
    assert sorted(GOLDEN) == sorted(key_name(*key) for key in run_keys())


@pytest.mark.parametrize("key", list(run_keys()), ids=lambda key: key_name(*key))
def test_engine_digests_match_golden(key, measure_oracle_spy):
    assert run_digests(*key) == GOLDEN[key_name(*key)]
    # A fleet that re-indexes every epoch measures the carried assignment
    # itself; every other run also takes the carried-count delta.
    assert "carried_qos_count" in measure_oracle_spy or key[2].endswith("+elastic")
