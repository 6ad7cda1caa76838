"""Tests for the wallclock stopwatch."""

import time

import pytest

from repro.util.timer import Stopwatch


class TestStopwatch:
    def test_starts_at_construction(self):
        watch = Stopwatch()
        time.sleep(0.005)
        assert watch.elapsed() >= 0.004
        assert watch.elapsed_ms() == pytest.approx(watch.elapsed() * 1e3, rel=0.5)

    def test_restart_resets_origin(self):
        watch = Stopwatch()
        time.sleep(0.005)
        watch.restart()
        assert watch.elapsed() < 0.005

    def test_lap_returns_split_and_restarts(self):
        watch = Stopwatch()
        time.sleep(0.005)
        first = watch.lap()
        second = watch.lap()
        assert first >= 0.004
        assert second < first
