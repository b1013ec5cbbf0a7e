"""Deterministic random-number-generator plumbing.

Every stochastic component in this library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, a seed sequence or ``None``.
:func:`as_generator` normalises all of them into a proper Generator so
downstream code never touches the legacy global NumPy random state.
Components that need several independent streams split their seed with
:func:`spawn_seeds` (or :func:`spawn_generators`), which follows NumPy's
``SeedSequence`` spawning, so the streams are statistically independent and
fully reproducible.

**Derivation contract.**  Stream ``i`` of a parent has spawn key
``parent.spawn_key + (i,)``, exactly as ``SeedSequence.spawn`` numbers its
children, so every stream draws bit-identically to NumPy's
``spawn`` + ``default_rng``.  A stream is a seed sequence until something
draws from it: :func:`as_generator` builds its Generator at the point of
the first draw, and a stream that is only split further, or never used,
costs no Generator at all.  :func:`reserve_seeds` hands out a block of
streams whose members are derived when indexed, so a session of a million
epochs holds one parent, not a million streams.  A caller's seed advances
exactly: after ``spawn_seeds(seed, n)`` or ``reserve_seeds(seed, n)`` a
caller-supplied NumPy ``SeedSequence`` (or a Generator's) reports ``n`` more
``n_children_spawned``, as after ``seed.spawn(n)``; the library advances
such a sequence through its own ``spawn``.  Roots the library builds itself
(from an int or ``None``) are :class:`SpawnKeySeed` objects, whose counter
moves in O(1).

:class:`SpawnKeySeed` runs NumPy's ``SeedSequence`` mixer in Python ints and
keeps the mixed pool, so child ``i`` continues the parent's mixer with the
words of ``i`` instead of re-mixing the whole entropy and key.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence, ISpawnableSeedSequence

__all__ = [
    "SeedLike",
    "SpawnKeySeed",
    "as_generator",
    "as_seed_sequence",
    "reserve_seeds",
    "spawn_generators",
    "spawn_seeds",
]

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_DEFAULT_POOL_SIZE = 4
#: Children spawned per call when a caller's NumPy sequence is advanced, so
#: reserving a long session keeps its transient objects bounded.
_ADVANCE_CHUNK = 1024


def _uint32_words(value) -> List[int]:
    """``value`` as NumPy's SeedSequence reads it: little-endian uint32 words.

    An int contributes its 32-bit words, least significant first (zero is
    one word); a sequence contributes its elements' words in order.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer entropy")
        if value == 0:
            return [0]
        words = []
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    if isinstance(value, (str, bytes, float, np.inexact)):
        raise TypeError(f"entropy must be an int or a sequence of ints, got {value!r}")
    return [word for item in value for word in _uint32_words(item)]


def _mix_words(pool: List[int], hash_const: int, words: Sequence[int]) -> tuple:
    """Mix further entropy words into a full pool (NumPy's trailing mixing loop)."""
    pool = list(pool)
    size = len(pool)
    for word in words:
        for dst in range(size):
            value = (word ^ hash_const) & _MASK32
            hash_const = (hash_const * _MULT_A) & _MASK32
            value = (value * hash_const) & _MASK32
            value ^= value >> _XSHIFT
            mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
            pool[dst] = mixed ^ (mixed >> _XSHIFT)
    return pool, hash_const


def _mix_root(words: Sequence[int], pool_size: int) -> tuple:
    """``(pool, hash_const)`` after NumPy's ``mix_entropy`` over ``words``."""
    hash_const = _INIT_A
    pool = []
    for i in range(pool_size):
        value = words[i] if i < len(words) else 0
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        pool.append(value ^ (value >> _XSHIFT))
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                value = pool[src] ^ hash_const
                hash_const = (hash_const * _MULT_A) & _MASK32
                value = (value * hash_const) & _MASK32
                value ^= value >> _XSHIFT
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    return _mix_words(pool, hash_const, words[pool_size:])


class SpawnKeySeed(ISpawnableSeedSequence):
    """A NumPy-compatible seed sequence whose mixer runs in Python ints.

    Same pool, same ``generate_state`` and same children as
    ``numpy.random.SeedSequence(entropy, spawn_key=spawn_key,
    pool_size=pool_size)``, so a ``PCG64`` seeded from it draws
    bit-identically.  It keeps the mixer's state, so :meth:`child` derives a
    child by mixing in only the child's own key words, and :meth:`reserve`
    advances the spawn counter in O(1).
    """

    __slots__ = ("entropy", "spawn_key", "pool_size", "n_children_spawned", "_pool", "_hash")

    def __init__(self, entropy=None, spawn_key: Sequence[int] = (), pool_size: int = 4):
        if pool_size < _DEFAULT_POOL_SIZE:
            raise ValueError(f"pool_size must be at least {_DEFAULT_POOL_SIZE}, got {pool_size}")
        if entropy is None:
            entropy = np.random.SeedSequence().entropy
        elif isinstance(entropy, np.integer):
            entropy = int(entropy)
        spawn_key = tuple(int(k) for k in spawn_key)
        words = _uint32_words(entropy)
        if spawn_key and len(words) < pool_size:
            words += [0] * (pool_size - len(words))
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool_size = pool_size
        self.n_children_spawned = 0
        self._pool, self._hash = _mix_root(words + _uint32_words(spawn_key), pool_size)

    @classmethod
    def from_seed_sequence(cls, seq: np.random.SeedSequence) -> "SpawnKeySeed":
        """The Python-int twin of a NumPy sequence (its counter is not copied)."""
        twin = cls(seq.entropy, seq.spawn_key, seq.pool_size)
        if twin._pool != [int(word) for word in seq.pool]:  # pragma: no cover - numpy drift
            raise ValueError("SeedSequence mixer mismatch; cannot derive its children")
        return twin

    def child(self, index: int) -> "SpawnKeySeed":
        """Child ``index`` (spawn key ``spawn_key + (index,)``); the counter is untouched."""
        child = object.__new__(SpawnKeySeed)
        child.entropy = self.entropy
        child.spawn_key = self.spawn_key + (index,)
        child.pool_size = self.pool_size
        child.n_children_spawned = 0
        words = (index,) if index <= _MASK32 else _uint32_words(index)
        child._pool, child._hash = _mix_words(self._pool, self._hash, words)
        return child

    def reserve(self, n: int) -> int:
        """Advance the spawn counter by ``n``; return the first reserved index."""
        first = self.n_children_spawned
        self.n_children_spawned = first + n
        return first

    def spawn(self, n_children: int) -> List["SpawnKeySeed"]:
        """The next ``n_children`` children, as ``SeedSequence.spawn``."""
        first = self.reserve(n_children)
        return [self.child(first + i) for i in range(n_children)]

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """NumPy's ``SeedSequence.generate_state`` over this pool."""
        if dtype is np.uint64 or np.dtype(dtype) == np.uint64:
            wide = True
        elif np.dtype(dtype) == np.uint32:
            wide = False
        else:
            raise ValueError("only support uint32 or uint64")
        pool = self._pool
        size = len(pool)
        hash_const = _INIT_B
        words = []
        for i in range(2 * n_words if wide else n_words):
            value = pool[i % size] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = (value * hash_const) & _MASK32
            words.append(value ^ (value >> _XSHIFT))
        if wide:
            return np.array(
                [words[i] | (words[i + 1] << 32) for i in range(0, len(words), 2)],
                dtype=np.uint64,
            )
        return np.array(words, dtype=np.uint32)

    def __repr__(self) -> str:
        return f"SpawnKeySeed(entropy={self.entropy!r}, spawn_key={self.spawn_key!r})"


SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence, SpawnKeySeed]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed type.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, a seed sequence (NumPy's
        or a :class:`SpawnKeySeed`) or an existing ``Generator`` (returned
        unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, ISeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, a seed sequence or a numpy Generator, "
        f"got {type(seed)!r}"
    )


def as_seed_sequence(seed: SeedLike = None):
    """The object ``seed``'s streams are spawned from.

    A fresh :class:`SpawnKeySeed` for ``None`` or an int, a seed sequence
    itself, and a Generator's own sequence; a Generator without one is
    returned unchanged (its streams are seeded by integer draws).
    """
    if isinstance(seed, (SpawnKeySeed, np.random.SeedSequence)):
        return seed
    if isinstance(seed, np.random.Generator):
        seq = getattr(seed.bit_generator, "seed_seq", None)
        return seed if seq is None else seq
    if seed is None or isinstance(seed, (int, np.integer)):
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return SpawnKeySeed(seed)
    raise TypeError(
        "seed must be None, an int, a seed sequence or a numpy Generator, "
        f"got {type(seed)!r}"
    )


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"number of streams must be non-negative, got {n}")


def spawn_seeds(seed: SeedLike, n: int) -> list:
    """The next ``n`` child streams of ``seed``, as seed sequences.

    No Generator is built: pass a child to :func:`as_generator` (or to any
    ``seed=`` parameter) when it is drawn from.  A caller's NumPy sequence
    spawns them itself, so its counter advances exactly as under
    ``seed.spawn(n)``.
    """
    _check_count(n)
    parent = as_seed_sequence(seed)
    if isinstance(parent, np.random.Generator):
        # No seed sequence to spawn from: seed the children by integer draws.
        return [int(i) for i in parent.integers(0, 2**63 - 1, size=n)]
    return parent.spawn(n)


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent generators derived from ``seed``.

    The derivation is deterministic: the same ``seed`` always yields the same
    list of child generators, in the same order (those of
    :func:`spawn_seeds`).
    """
    return [as_generator(child) for child in spawn_seeds(seed, n)]


class SeedBlock(Sequence):
    """``n`` reserved child streams of one parent, each derived when indexed.

    A slice is again a block; no stream is derived until an element is read.
    """

    __slots__ = ("_parent", "_first", "_n")

    def __init__(self, parent: SpawnKeySeed, first: int, n: int):
        self._parent = parent
        self._first = first
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            if step != 1:
                raise ValueError("a seed block slice takes no step")
            return SeedBlock(self._parent, self._first + start, max(stop - start, 0))
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("seed block index out of range")
        return self._parent.child(self._first + index)


def reserve_seeds(seed: SeedLike, n: int) -> Sequence:
    """Reserve the next ``n`` child streams of ``seed``; derive each when indexed.

    ``reserve_seeds(seed, n)[i]`` is the stream ``spawn_seeds(seed, n)[i]``
    would have been, and ``seed``'s counter advances by ``n`` now.  The block
    holds the parent and an offset only, so a long session does not hold
    one stream per epoch.  A caller's NumPy sequence is advanced through its
    own ``spawn`` in bounded chunks; its streams are then derived from a
    :class:`SpawnKeySeed` twin.
    """
    _check_count(n)
    parent = as_seed_sequence(seed)
    if isinstance(parent, SpawnKeySeed):
        return SeedBlock(parent, parent.reserve(n), n)
    if isinstance(parent, np.random.Generator):
        return spawn_seeds(parent, n)  # integer-seeded children, drawn now
    first = parent.n_children_spawned
    remaining = n
    while remaining:
        step = min(remaining, _ADVANCE_CHUNK)
        parent.spawn(step)
        remaining -= step
    return SeedBlock(SpawnKeySeed.from_seed_sequence(parent), first, n)
