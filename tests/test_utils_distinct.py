"""sorted_distinct must return exactly what plain np.unique returns."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.distinct import sorted_distinct


@st.composite
def int_arrays(draw):
    """Int arrays of any dtype and shape (0-d and empty too), rich in duplicates."""
    dtype = draw(hnp.integer_dtypes() | hnp.unsigned_integer_dtypes())
    info = np.iinfo(dtype)
    # A narrow band around zero repeats values; the full range adds extremes.
    near_zero = st.integers(max(int(info.min), -3), min(int(info.max), 3))
    elements = near_zero | st.integers(int(info.min), int(info.max))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    return draw(hnp.arrays(dtype, shape, elements=elements))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(values=int_arrays())
def test_matches_np_unique(values):
    expected = np.unique(values)
    got = sorted_distinct(values)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_returns_a_new_array():
    values = np.array([2, 1, 2], dtype=np.int64)
    got = sorted_distinct(values)
    got[:] = 0
    assert values.tolist() == [2, 1, 2]
