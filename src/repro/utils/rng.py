"""Deterministic random-number-generator plumbing.

Every stochastic component in this library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  :func:`as_generator`
normalises all three into a proper Generator so downstream code never touches
the legacy global NumPy random state.  Experiments that need several
independent streams (e.g. one per simulation run) use
:func:`spawn_generators`, which relies on NumPy's ``SeedSequence`` spawning so
the streams are statistically independent and fully reproducible.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["SeedLike", "as_generator", "spawn_generators"]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed type.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a numpy Generator, got {type(seed)!r}"
    )


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent generators derived from ``seed``.

    The derivation is deterministic: the same ``seed`` always yields the same
    list of child generators, in the same order.
    """
    if n < 0:
        raise ValueError(f"number of generators must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Spawn from the generator's bit generator seed sequence when possible,
        # otherwise derive children by drawing integer seeds from it.
        seed_seq = getattr(seed.bit_generator, "seed_seq", None)
        if seed_seq is not None:
            children = seed_seq.spawn(n)
            return [np.random.default_rng(c) for c in children]
        ints = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(i)) for i in ints]
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.default_rng(c) for c in seed.spawn(n)]
    base = np.random.SeedSequence(seed if seed is not None else None)
    return [np.random.default_rng(c) for c in base.spawn(n)]
