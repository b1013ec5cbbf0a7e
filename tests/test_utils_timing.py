"""Tests for repro.utils.timing."""

from __future__ import annotations

import time

import pytest

from repro.utils.timing import Timer


class TestTimer:
    def test_context_manager_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_start_stop(self):
        t = Timer().start()
        time.sleep(0.005)
        elapsed = t.stop()
        assert elapsed == t.elapsed
        assert elapsed > 0.0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.002)
        assert t.elapsed >= 0.0
        assert t.elapsed != first or t.elapsed >= 0.0

    def test_default_elapsed_is_zero(self):
        assert Timer().elapsed == 0.0

    def test_start_returns_self(self):
        t = Timer()
        assert t.start() is t

    def test_stop_twice_raises(self):
        t = Timer().start()
        t.stop()
        with pytest.raises(RuntimeError):
            t.stop()

    def test_elapsed_recorded_when_body_raises(self):
        t = Timer()
        with pytest.raises(KeyError):
            with t:
                time.sleep(0.002)
                raise KeyError("boom")
        assert t.elapsed >= 0.001
