"""EpochArena: pooling semantics and the no-aliasing invariant (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arena import EpochArena, _capacity_for

# --------------------------------------------------------------------------- #
# Direct semantics
# --------------------------------------------------------------------------- #


def test_acquire_shapes_and_dtypes():
    arena = EpochArena()
    flat = arena.acquire(7, dtype=np.int64)
    assert flat.shape == (7,) and flat.dtype == np.int64
    matrix = arena.acquire((3, 5), dtype=np.float64)
    assert matrix.shape == (3, 5) and matrix.dtype == np.float64


def test_release_then_acquire_reuses_storage():
    arena = EpochArena()
    first = arena.acquire(100, dtype=np.float64)
    base_bytes = arena.allocated_bytes
    arena.release(first)
    second = arena.acquire(100, dtype=np.float64)
    assert np.shares_memory(first, second)
    assert arena.allocated_bytes == base_bytes
    assert arena.stats()["reuses"] == 1


def test_release_rejects_foreign_and_double_release():
    arena = EpochArena()
    with pytest.raises(ValueError):
        arena.release(np.empty(4))
    buf = arena.acquire(4)
    arena.release(buf)
    with pytest.raises(ValueError):
        arena.release(buf)


def test_release_if_owned_only_releases_live_arena_buffers():
    arena = EpochArena()
    foreign = np.empty(8)
    assert not arena.release_if_owned(foreign)
    assert not arena.release_if_owned(None)
    buf = arena.acquire(8)
    assert arena.owns(buf)
    assert arena.release_if_owned(buf)
    assert not arena.owns(buf)
    assert not arena.release_if_owned(buf)


def test_scratch_is_persistent_and_grows_geometrically():
    arena = EpochArena()
    small = arena.scratch("work", 10)
    small[:] = 3
    again = arena.scratch("work", 10)
    assert np.shares_memory(small, again)
    big = arena.scratch("work", 1000)
    assert big.shape == (1000,)
    other = arena.scratch("other", 10)
    assert not np.shares_memory(big, other)


def test_scratch_dtype_change_reallocates():
    arena = EpochArena()
    ints = arena.scratch("k", 5, dtype=np.int64)
    floats = arena.scratch("k", 5, dtype=np.float64)
    assert floats.dtype == np.float64
    assert not np.shares_memory(ints, floats)


def test_arange_is_cached_and_read_only():
    arena = EpochArena()
    ramp = arena.arange(10)
    np.testing.assert_array_equal(ramp, np.arange(10))
    assert not ramp.flags.writeable
    assert np.shares_memory(ramp, arena.arange(5))
    long_ramp = arena.arange(100)
    np.testing.assert_array_equal(long_ramp, np.arange(100))


def test_arange_grows_to_the_request_class():
    arena = EpochArena()
    arena.arange(100)
    ramp = arena.arange(101)
    np.testing.assert_array_equal(ramp, np.arange(101))
    # Not to twice the old length: the 100k rung's ramp would double.
    assert ramp.base.shape == (_capacity_for(101),) == (112,)


def test_stats_counters():
    arena = EpochArena()
    a = arena.acquire(10)
    arena.release(a)
    arena.acquire(10)
    arena.scratch("s", 20)
    stats = arena.stats()
    assert stats["acquires"] == 2
    assert stats["reuses"] == 1
    assert stats["live_buffers"] == 1
    assert stats["allocated_bytes"] > 0
    assert stats["scratch_bytes"] > 0


# --------------------------------------------------------------------------- #
# Properties: size classes, bucket reuse, and no two live buffers ever alias
# --------------------------------------------------------------------------- #


@given(n=st.integers(min_value=1, max_value=2**40))
def test_size_class_between_request_and_power_of_two(n):
    """A class holds the request, wastes under 16 slots or an eighth of it,
    and never exceeds the next power of two (the old bucket, min 16)."""
    cap = _capacity_for(n)
    assert n <= cap <= max(16, 1 << (n - 1).bit_length())
    assert cap - n < max(16, n / 8)


@settings(deadline=None)
@given(
    sizes=st.integers(min_value=1, max_value=300_000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=_capacity_for(n)))
    ),
    dtype=st.sampled_from(["f8", "i8", "?"]),
)
def test_requests_of_one_class_reuse_a_buffer(sizes, dtype):
    """A released buffer serves the next request of its class, equal sizes included."""
    first_size, size = sizes
    arena = EpochArena()
    first = arena.acquire(first_size, dtype=dtype)
    arena.release(first)
    allocated = arena.allocated_bytes
    second = arena.acquire(first_size, dtype=dtype)
    assert np.shares_memory(first, second)
    arena.release(second)
    if _capacity_for(size) == _capacity_for(first_size):
        third = arena.acquire(size, dtype=dtype)
        assert np.shares_memory(first, third)
    assert arena.allocated_bytes == allocated

_steps = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release"]),
        st.integers(min_value=1, max_value=5000),  # size (acquire) / pick (release)
        st.sampled_from(["f8", "i8", "?"]),
    ),
    min_size=1,
    max_size=60,
)


@settings(deadline=None, max_examples=200)
@given(steps=_steps)
def test_live_buffers_never_alias(steps):
    """Any acquire/release interleaving keeps live buffers pairwise disjoint.

    This is the arena's core safety contract: handing out memory that
    overlaps a live buffer would silently corrupt whatever the borrower is
    still holding (the double-buffered delay matrix, the population arrays).
    """
    arena = EpochArena()
    live = []
    for op, number, dtype in steps:
        if op == "acquire":
            buf = arena.acquire(number, dtype=dtype)
            buf.fill(0)
            for other in live:
                assert not np.shares_memory(buf, other)
            live.append(buf)
        elif live:
            victim = live.pop(number % len(live))
            arena.release(victim)
    # Scratch and arange storage must never alias checked-out buffers either.
    scratch = arena.scratch("probe", 64)
    ramp = arena.arange(64)
    for buf in live:
        assert not np.shares_memory(scratch, buf)
        assert not np.shares_memory(ramp, buf)
    assert arena.stats()["live_buffers"] == len(live)


@settings(deadline=None, max_examples=100)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=30),
    dtype=st.sampled_from(["f8", "i8"]),
)
def test_acquire_release_cycles_bound_allocation(sizes, dtype):
    """Serial acquire->release cycles allocate at most one block per bucket.

    At steady state (same sizes recurring) the pool must satisfy every
    acquire from recycled storage: ``allocated_bytes`` stabilises after one
    pass while ``reuses`` keeps climbing.
    """
    arena = EpochArena()
    for size in sizes:
        buf = arena.acquire(size, dtype=dtype)
        arena.release(buf)
    settled = arena.allocated_bytes
    for size in sizes:
        buf = arena.acquire(size, dtype=dtype)
        arena.release(buf)
    assert arena.allocated_bytes == settled
    assert arena.stats()["reuses"] >= len(sizes)
