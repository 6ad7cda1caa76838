"""The one wallclock timing helper, shared by counting runs and the serving tier."""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """A running ``perf_counter`` reading, started at construction.

    The serving tier's request paths (socket server, HTTP handler, shard
    router) all need the same two lines — grab a monotonic start, subtract
    it later — and keeping those raw ``time.perf_counter()`` pairs in sync
    across files is exactly how stage timings and metrics drift apart.
    ``Stopwatch`` owns the pattern:

    >>> watch = Stopwatch()
    >>> watch.elapsed() >= 0.0
    True
    >>> lap = watch.lap()  # elapsed since start (or last lap), then restart
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`/:meth:`lap`)."""
        return time.perf_counter() - self._start

    def elapsed_ms(self) -> float:
        """Like :meth:`elapsed`, in milliseconds."""
        return self.elapsed() * 1e3

    def restart(self) -> None:
        """Reset the start point to now."""
        self._start = time.perf_counter()

    def lap(self) -> float:
        """Return seconds since the last lap (or start) and restart."""
        now = time.perf_counter()
        elapsed = now - self._start
        self._start = now
        return elapsed
