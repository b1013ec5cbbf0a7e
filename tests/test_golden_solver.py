"""Max-regret placements must match the committed golden digests.

See ``tests/golden/solver_corpus.py`` for the grid and how to regenerate
``tests/golden/solver.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.golden import solver_corpus

GOLDEN = json.loads(solver_corpus.GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus():
    return solver_corpus.corpus()


def test_corpus_covers_the_grid(corpus):
    assert sorted(GOLDEN) == sorted(corpus)


def test_grid_reaches_the_least_loaded_fallback():
    assert GOLDEN["tight/grez-grec"]["capacity_exceeded"]
    assert GOLDEN["coords/grez-grec"]["capacity_exceeded"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solver_digests_match_golden(corpus, name):
    assert corpus[name] == GOLDEN[name]
