"""Tests for repro.utils.shm — O(1)-picklable shared-memory array handles."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.utils.shm import SharedArray


class TestSharedArray:
    def test_round_trips_values_exactly(self):
        array = np.arange(60, dtype=np.float64).reshape(6, 10) * np.pi
        shared = SharedArray(array)
        try:
            np.testing.assert_array_equal(shared.as_array(), array)
            clone = pickle.loads(pickle.dumps(shared))
            np.testing.assert_array_equal(clone.as_array(), array)
        finally:
            shared.release()

    def test_pickle_is_o1_in_the_data(self):
        small = SharedArray(np.zeros((4, 4)))
        big = SharedArray(np.zeros((200, 200)))
        try:
            small_blob = len(pickle.dumps(small))
            big_blob = len(pickle.dumps(big))
            # 2500x more data, same-sized pickle (name + shape + dtype only).
            assert big_blob < small_blob + 32
            assert big_blob < 200 * 200 * 8 / 100
        finally:
            small.release()
            big.release()

    def test_views_are_read_only(self):
        shared = SharedArray(np.ones(8))
        try:
            view = shared.as_array()
            with pytest.raises(ValueError):
                view[0] = 2.0
        finally:
            shared.release()

    def test_does_not_alias_the_source(self):
        source = np.ones(5)
        shared = SharedArray(source)
        try:
            source[0] = 99.0
            assert shared.as_array()[0] == 1.0
        finally:
            shared.release()

    def test_same_process_attach_is_cached(self):
        shared = SharedArray(np.arange(6, dtype=np.int64))
        try:
            blob = pickle.dumps(shared)
            first = pickle.loads(blob)
            second = pickle.loads(blob)
            assert first is second  # per-process attachment cache
            np.testing.assert_array_equal(first.as_array(), np.arange(6))
        finally:
            shared.release()

    def test_preserves_dtype_and_shape(self):
        for array in (
            np.zeros((3, 2, 4), dtype=np.float32),
            np.arange(7, dtype=np.int32),
            np.array([True, False, True]),
        ):
            shared = SharedArray(array)
            try:
                out = shared.as_array()
                assert out.shape == array.shape
                assert out.dtype == array.dtype
                np.testing.assert_array_equal(out, array)
            finally:
                shared.release()

    def test_empty_array(self):
        shared = SharedArray(np.zeros((0, 5)))
        try:
            assert shared.as_array().shape == (0, 5)
            assert pickle.loads(pickle.dumps(shared)).as_array().size == 0
        finally:
            shared.release()
