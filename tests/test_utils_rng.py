"""Tests for repro.utils.rng — deterministic RNG plumbing."""

from __future__ import annotations

import pickle
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.utils.rng import (
    SpawnKeySeed,
    as_generator,
    reserve_seeds,
    spawn_generators,
    spawn_seeds,
)
from repro.world.scenario import build_scenario


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(123).integers(0, 1_000_000, size=10)
        b = as_generator(123).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 1_000_000, size=20)
        b = as_generator(2).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(42)
        gen = as_generator(ss)
        assert isinstance(gen, np.random.Generator)

    def test_numpy_integer_seed_accepted(self):
        gen = as_generator(np.int64(5))
        assert isinstance(gen, np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_generator(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")  # type: ignore[arg-type]


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(0, 4)
        assert len(gens) == 4
        assert all(isinstance(g, np.random.Generator) for g in gens)

    def test_deterministic_from_int_seed(self):
        a = [g.integers(0, 10**9) for g in spawn_generators(99, 3)]
        b = [g.integers(0, 10**9) for g in spawn_generators(99, 3)]
        assert a == b

    def test_streams_are_independent(self):
        g1, g2 = spawn_generators(7, 2)
        x = g1.integers(0, 10**9, size=50)
        y = g2.integers(0, 10**9, size=50)
        assert not np.array_equal(x, y)

    def test_zero_generators(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_spawn_from_generator(self):
        rng = np.random.default_rng(11)
        gens = spawn_generators(rng, 2)
        assert len(gens) == 2

    def test_spawn_from_seed_sequence(self):
        gens = spawn_generators(np.random.SeedSequence(3), 2)
        assert len(gens) == 2


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    values=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=64),
    draws=st.integers(1, 4),
)
def test_scalar_choice_is_a_bounded_integer_draw(seed, values, draws):
    # RanZ and the hierarchical border-router pick replace ``rng.choice(a)``
    # on a 1-D array by ``a[rng.integers(0, a.size)]``.  The golden corpora
    # rely on that being the same value and leaving the generator in the same
    # state; if a numpy release changes ``choice``, this test names the cause.
    a = np.array(values, dtype=np.int64)
    by_choice = np.random.default_rng(seed)
    by_integers = np.random.default_rng(seed)
    for _ in range(draws):
        assert by_choice.choice(a) == a[by_integers.integers(0, a.size)]
    assert by_choice.random() == by_integers.random()


class TestSpawnDeterminism:
    def test_from_generator_is_deterministic(self):
        a = [g.integers(0, 10**9) for g in spawn_generators(np.random.default_rng(5), 3)]
        b = [g.integers(0, 10**9) for g in spawn_generators(np.random.default_rng(5), 3)]
        assert a == b

    def test_from_seed_sequence_is_deterministic(self):
        a = [g.random() for g in spawn_generators(np.random.SeedSequence(8), 3)]
        b = [g.random() for g in spawn_generators(np.random.SeedSequence(8), 3)]
        assert a == b

    def test_none_seed_gives_distinct_streams(self):
        g1, g2 = spawn_generators(None, 2)
        assert not np.array_equal(g1.integers(0, 10**9, size=20), g2.integers(0, 10**9, size=20))

    def test_seed_sequence_generator_is_deterministic(self):
        a = as_generator(np.random.SeedSequence(9)).random(4)
        b = as_generator(np.random.SeedSequence(9)).random(4)
        np.testing.assert_array_equal(a, b)

    def test_children_do_not_replay_the_parent_stream(self):
        parent = as_generator(99).integers(0, 10**9, size=20)
        for child in spawn_generators(99, 3):
            assert not np.array_equal(child.integers(0, 10**9, size=20), parent)


# ---------------------------------------------------------------------- #
# Derived streams against NumPy's own spawn + default_rng.
# ---------------------------------------------------------------------- #
def _trees(depth: int):
    """Spawn trees: each node is ``(how, children)``, at most five children."""
    how = st.sampled_from(["spawn_seeds", "reserve_seeds", "spawn_generators"])
    if depth == 0:
        return st.tuples(how, st.just([]))
    return st.tuples(how, st.lists(_trees(depth - 1), max_size=5))


def _draws(rng: np.random.Generator) -> tuple:
    return rng.integers(0, 2**63, size=3).tolist(), rng.random(2).tolist()


def _check_tree(tree, lib_parent, ref_parent: np.random.SeedSequence) -> None:
    """Derive ``tree`` below both parents; every stream must draw the same."""
    how, children = tree
    ref_kids = ref_parent.spawn(len(children))
    if how == "spawn_seeds":
        lib_kids = spawn_seeds(lib_parent, len(children))
    elif how == "reserve_seeds":
        block = reserve_seeds(lib_parent, len(children))
        # Derive out of order: a block's member does not depend on the others.
        lib_kids = [None] * len(children)
        for i in reversed(range(len(children))):
            lib_kids[i] = block[i]
    else:
        lib_kids = spawn_generators(lib_parent, len(children))
    assert len(lib_kids) == len(ref_kids)
    for sub, lib_kid, ref_kid in zip(children, lib_kids, ref_kids):
        # A seed-sequence child draws through the Generator built for it; a
        # Generator child's subtree spawns from the Generator's own sequence.
        drawn = lib_kid if how == "spawn_generators" else as_generator(lib_kid)
        assert _draws(drawn) == _draws(np.random.default_rng(ref_kid))
        _check_tree(sub, lib_kid, ref_kid)


_ENTROPY = st.one_of(
    st.integers(0, 2**130),
    st.lists(st.integers(0, 2**70), min_size=1, max_size=6),
)


class TestDerivedStreamsMatchNumpy:
    @settings(
        derandomize=True,
        deadline=timedelta(seconds=2),
        database=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        root=st.sampled_from(["int", "SeedSequence", "Generator"]),
        entropy=_ENTROPY,
        tree=_trees(3),
    )
    def test_spawn_trees(self, root, entropy, tree):
        if root == "int":
            entropy = entropy if isinstance(entropy, int) else entropy[0]
            lib_root = entropy
        elif root == "SeedSequence":
            lib_root = np.random.SeedSequence(entropy)
        else:
            lib_root = np.random.default_rng(np.random.SeedSequence(entropy))
        ref_root = np.random.SeedSequence(entropy)
        _check_tree(tree, lib_root, ref_root)
        if root == "SeedSequence":
            assert lib_root.n_children_spawned == ref_root.n_children_spawned
        elif root == "Generator":
            counter = lib_root.bit_generator.seed_seq.n_children_spawned
            assert counter == ref_root.n_children_spawned

    @settings(derandomize=True, deadline=timedelta(seconds=1), database=None, max_examples=100)
    @given(
        entropy=_ENTROPY,
        spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
        pool_size=st.integers(4, 8),
        n_words=st.integers(1, 9),
        index=st.one_of(st.integers(0, 9), st.integers(0, 2**70)),
    )
    def test_pool_and_state(self, entropy, spawn_key, pool_size, n_words, index):
        ref = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        lib = SpawnKeySeed(entropy, spawn_key, pool_size)
        assert lib._pool == ref.pool.tolist()
        for dtype in (np.uint32, np.uint64):
            np.testing.assert_array_equal(
                lib.generate_state(n_words, dtype), ref.generate_state(n_words, dtype)
            )
        # Child ``index`` of a spawn, however large the index.
        ref_child = np.random.SeedSequence(
            entropy, spawn_key=[*spawn_key, index], pool_size=pool_size
        )
        assert lib.child(index)._pool == ref_child.pool.tolist()

    def test_twin_of_a_numpy_sequence(self):
        ref = np.random.SeedSequence([3, 2**70], spawn_key=(4, 2**33))
        twin = SpawnKeySeed.from_seed_sequence(ref)
        assert _draws(as_generator(twin)) == _draws(np.random.default_rng(ref))

    def test_reserve_block_holds_no_streams(self):
        parent = SpawnKeySeed(5)
        block = reserve_seeds(parent, 10**9)
        assert len(block) == 10**9 and parent.n_children_spawned == 10**9
        assert block[-1].spawn_key == (10**9 - 1,)
        tail = block[10**9 - 3 :]
        assert [s.spawn_key for s in tail] == [(k,) for k in range(10**9 - 3, 10**9)]
        with pytest.raises(IndexError):
            block[10**9]

    def test_derived_generator_survives_worker_pickling(self):
        # repro.utils.pool hands tasks to a process pool, which pickles them
        # with multiprocessing's ForkingPickler.
        from multiprocessing.reduction import ForkingPickler

        seq = spawn_seeds(11, 3)[2]
        rng = as_generator(seq)
        rng.random(5)
        clone = pickle.loads(ForkingPickler.dumps(rng))
        assert _draws(clone) == _draws(rng)
        seq_clone = pickle.loads(ForkingPickler.dumps(seq))
        assert _draws(as_generator(seq_clone)) == _draws(as_generator(seq))
        assert seq_clone.spawn(2)[1].spawn_key == (2, 1)


class TestSessionSeedCounter:
    """A caller's seed advances by what the session spawns: one child per
    algorithm, one per epoch and, with a timeline, one for the scenario."""

    @pytest.mark.parametrize("timeline", [None, "diurnal"])
    @pytest.mark.parametrize("wrap", ["SeedSequence", "Generator"])
    def test_caller_counter(self, small_scenario, timeline, wrap):
        seq = np.random.SeedSequence(21)
        seed = seq if wrap == "SeedSequence" else np.random.default_rng(seq)
        simulator = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec", "ranz-virc"],
            churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
            seed=seed,
            policy="reexecute",
            scenario_timeline=timeline,
        )
        session = simulator.session(1500)
        assert seq.n_children_spawned == 2 + 1500 + (timeline is not None)
        # Its streams are the ones an int seed's library-built root derives.
        records = session.run_batch(2)
        ref = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec", "ranz-virc"],
            churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
            seed=21,
            policy="reexecute",
            scenario_timeline=timeline,
        ).session(1500)
        assert [r.row() for r in records] == [r.row() for r in ref.run_batch(2)]


def test_long_session_starts_in_bounded_memory():
    """``stream`` promises arbitrarily long runs: starting a session of a
    million epochs must not hold per-epoch state."""
    scenario = build_scenario(config_from_label("5s-15z-200c-100cp"), seed=0)
    simulator = ChurnSimulator(scenario=scenario, algorithms=["grez-grec"], seed=3)
    tracemalloc.start()
    try:
        session = simulator.session(1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert len(session.run_epoch()) == 1


class TestGeneratorsBuiltWhenDrawn:
    """A Generator is built only for a stream that draws; every PCG64 seeded
    from a derived stream reads its state once through ``generate_state``."""

    @pytest.fixture
    def built(self, monkeypatch):
        counter = {"generators": 0}
        generate_state = SpawnKeySeed.generate_state

        def counting(self, *args, **kwargs):
            counter["generators"] += 1
            return generate_state(self, *args, **kwargs)

        monkeypatch.setattr(SpawnKeySeed, "generate_state", counting)
        return counter

    @staticmethod
    def _simulator(correlation: float) -> ChurnSimulator:
        config = config_from_label("5s-15z-200c-100cp", correlation=correlation)
        return ChurnSimulator(
            scenario=build_scenario(config, seed=0),
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
            seed=3,
            policy="warm_start",
        )

    def test_session_start_builds_none(self, built):
        simulator = self._simulator(0.0)
        built["generators"] = 0
        simulator.session(1_000_000)
        assert built["generators"] == 0

    # Join nodes, leave/move picks, move destinations and zone choices draw;
    # the region map draws only under correlation, and a warm start, the
    # uniform zone weights and the churn streams themselves draw nothing.
    @pytest.mark.parametrize("correlation, expected", [(0.0, 4), (0.5, 5)])
    def test_warm_start_epoch(self, built, correlation, expected):
        session = self._simulator(correlation).session(3)
        for _ in range(3):
            built["generators"] = 0
            session.run_epoch()
            assert built["generators"] == expected
