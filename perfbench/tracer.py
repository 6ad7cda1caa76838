"""In-memory span tracer used by the benchmark's traced runs.

A span is a named interval with a start, an end and a parent (the span
open on the same thread when it began).  Every span updates per-name
aggregates (calls, total time, self time = duration minus the time its
child spans cover), so the per-layer metrics are exact however many calls
a layer makes.  The spans themselves are kept in memory up to a cap per
name and written once, at the end, as Chrome trace-event JSON.

Nothing here imports the program: the wrappers are installed on the
program's public functions by ``launch.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Spans kept per name for the Chrome trace; aggregates cover every span.
SPANS_PER_NAME = 2000


class _ThreadState:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[list] = []  # [name, start, child_seconds, span_id]
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, total, self]
        self.counts: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.kept: Dict[str, int] = {}
        self.next_id = 0


class Tracer:
    """Thread-aware span recorder; one per traced process."""

    def __init__(self) -> None:
        self.enabled = True
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._mark: Optional[Dict[str, Any]] = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------- spans
    def begin(self, name: str) -> None:
        state = self._state()
        state.next_id += 1
        state.stack.append([name, time.perf_counter(), 0.0, state.next_id])

    def end(self, name: str) -> None:
        """Close the innermost span if it is ``name`` (else do nothing)."""
        now = time.perf_counter()
        state = self._state()
        if not state.stack or state.stack[-1][0] != name:
            return
        _, start, child, span_id = state.stack.pop()
        duration = now - start
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        parent = 0
        if state.stack:
            state.stack[-1][2] += duration
            parent = state.stack[-1][3]
        kept = state.kept.get(name, 0)
        if kept < SPANS_PER_NAME:
            state.kept[name] = kept + 1
            state.spans.append((name, start, now, span_id, parent))

    def top(self) -> Optional[str]:
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    # --------------------------------------------------------- wrappers
    def wrap_call(self, name: str, function: Callable) -> Callable:
        """Time every call of ``function`` as a span."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(name)

        traced.__wrapped__ = function
        return traced

    def wrap_iter(self, name: str, function: Callable, calls: Optional[str] = None) -> Callable:
        """Time the call and every step of the iterator ``function`` returns.

        ``calls`` names a counter bumped once per call, since one call makes
        many spans here.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            if calls is not None:
                tracer.count(calls)
            tracer.begin(name)
            try:
                iterator = iter(function(*args, **kwargs))
            finally:
                tracer.end(name)
            return TimedIterator(tracer, name, iterator)

        traced.__wrapped__ = function
        return traced

    def wrap_counter(self, name: str, function: Callable) -> Callable:
        """Count calls of ``function`` without timing them (for the hottest leaves)."""
        tracer = self

        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.enabled:
                tracer.count(name)
            return function(*args, **kwargs)

        counted.__wrapped__ = function
        return counted

    # ---------------------------------------------------------- results
    def mark(self) -> None:
        """Remember the aggregates so far; :meth:`aggregates` reports past them."""
        self._mark = self._merged()

    def _merged(self) -> Dict[str, Any]:
        totals: Dict[str, List[float]] = {}
        counts: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in list(state.totals.items()):
                merged = totals.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
        return {"totals": totals, "counts": counts}

    def aggregates(self) -> Dict[str, Any]:
        """``{"totals": {name: [calls, total_s, self_s]}, "counts": {...}}``."""
        merged = self._merged()
        if self._mark is not None:
            for name, base in self._mark["totals"].items():
                entry = merged["totals"].get(name)
                if entry is not None:
                    merged["totals"][name] = [a - b for a, b in zip(entry, base)]
            for name, base in self._mark["counts"].items():
                if name in merged["counts"]:
                    merged["counts"][name] -= base
        return merged

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        events = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, start, end, span_id, parent in list(state.spans):
                events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": round((start - self.origin) * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "pid": pid,
                        "tid": state.tid,
                        "args": {"id": span_id, "parent": parent},
                    }
                )
        return events


class TimedIterator:
    """Iterator proxy that records each ``next`` as a span."""

    def __init__(self, tracer: Tracer, name: str, iterator: Iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._iterator = iterator

    def __iter__(self) -> "TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        if not tracer.enabled:
            return next(self._iterator)
        tracer.begin(self._name)
        try:
            return next(self._iterator)
        finally:
            tracer.end(self._name)
