"""scatter_add_2d must reproduce np.add.at on a zeroed 2-D target bit for bit."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.scatter import scatter_add_2d


def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(
        derandomize=True, deadline=None, database=None, max_examples=max_examples
    )


def _problem(seed: int):
    rng = np.random.default_rng(seed)
    num_rows, num_cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    size = int(rng.integers(0, 200))
    # Few rows and columns, so cells collect many values; mixed magnitudes
    # make the sums depend on their order.
    rows = rng.integers(0, num_rows, size=size)
    scale = 10.0 ** rng.integers(-8, 9, size=size)
    return rng, (num_rows, num_cols), rows, scale


@pinned(80)
@given(seed=st.integers(0, 2**32 - 1))
def test_cells_match_add_at(seed):
    rng, shape, rows, scale = _problem(seed)
    cols = rng.integers(0, shape[1], size=rows.size)
    values = rng.standard_normal(rows.size) * scale
    expected = np.zeros(shape)
    np.add.at(expected, (rows, cols), values)
    assert scatter_add_2d(shape, rows, values, cols=cols).tobytes() == expected.tobytes()


@pinned(80)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_blocks_match_add_at(seed):
    rng, shape, rows, scale = _problem(seed)
    values = rng.standard_normal((rows.size, shape[1])) * scale[:, None]
    expected = np.zeros(shape)
    np.add.at(expected, rows, values)
    assert scatter_add_2d(shape, rows, values).tobytes() == expected.tobytes()


def test_boolean_blocks_count():
    rows = np.array([2, 0, 2])
    values = np.array([[True, False], [True, True], [True, True]])
    np.testing.assert_array_equal(
        scatter_add_2d((3, 2), rows, values), [[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]]
    )
