"""The sweep experiments' rendered text must match the committed golden text.

See ``tests/golden/experiments_corpus.py`` for the inputs and how to
regenerate ``tests/golden/experiments.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.experiments_corpus import CASES, GOLDEN_PATH, render

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_corpus_covers_the_cases():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_rendered_text_matches_golden(name):
    assert render(name) == GOLDEN[name]
