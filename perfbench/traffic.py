"""Request mixes and closed-loop clients for the serving phases.

Each client thread owns one connection and sends its next request only
after the previous reply has arrived (a closed loop).  Requests come from a
per-thread pool drawn from the workload seed, so a seed fixes the traffic;
replies are kept and checked after the phase, outside the timed loop.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: Requests drawn per client thread; the loop cycles through them.
POOL_SIZE = 4096
ZIPF_EXPONENT = 1.2
HOT_KEYS = 256
ABSENT_SHARE = 0.1


def _absent_key(
    rng: random.Random, keys: Sequence[Tuple], present: Set[Tuple], vocab: int
) -> Tuple:
    """A key shaped like a stored one (so it falls inside the key range) but absent."""
    while True:
        base = rng.choice(keys)
        candidate = base[:-1] + (rng.randrange(vocab),)
        if candidate not in present:
            return candidate


class Mix:
    """Draws requests for one traffic mix."""

    def __init__(self, name: str, items: Sequence[Tuple[Tuple, int]]) -> None:
        self.name = name
        self.keys = [key for key, _ in items]
        self.present = set(self.keys)
        self.vocab = 1 + max(token for key in self.keys for token in key)
        by_frequency = sorted(items, key=lambda item: (-item[1], item[0]))
        self.hot = [key for key, _ in by_frequency[:HOT_KEYS]]
        cumulative, total = [], 0.0
        for rank in range(1, len(self.hot) + 1):
            total += rank ** -ZIPF_EXPONENT
            cumulative.append(total)
        self._zipf = cumulative
        self.multi_token = [key for key in self.keys if len(key) >= 2]

    def _zipf_key(self, rng: random.Random) -> Tuple:
        position = bisect.bisect_left(self._zipf, rng.random() * self._zipf[-1])
        return self.hot[min(position, len(self.hot) - 1)]

    def _maybe_absent(self, rng: random.Random, key: Tuple) -> Tuple:
        if rng.random() < ABSENT_SHARE:
            return _absent_key(rng, self.keys, self.present, self.vocab)
        return key

    def request(self, rng: random.Random) -> Dict[str, Any]:
        draw = rng.random()
        if self.name == "hot":
            if draw < 0.8:
                return {"op": "get", "key": list(self._maybe_absent(rng, self._zipf_key(rng)))}
            if draw < 0.9:
                keys = [list(self._maybe_absent(rng, self._zipf_key(rng))) for _ in range(8)]
                return {"op": "multi_get", "keys": keys}
            return {"op": "complete", "key": list(self._zipf_key(rng)), "k": 5}
        if draw < 0.8:
            return {"op": "get", "key": list(self._maybe_absent(rng, rng.choice(self.keys)))}
        return {"op": "prefix", "key": list(rng.choice(self.multi_token)[:2]), "limit": 50}

    def pool(self, seed: int, thread: int) -> List[Dict[str, Any]]:
        rng = random.Random(f"{seed}/{self.name}/{thread}")
        return [self.request(rng) for _ in range(POOL_SIZE)]


class _SocketConnection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self._socket = socket.create_connection(address, timeout=10)
        self._reader = self._socket.makefile("rb")

    def call(self, payload: bytes) -> bytes:
        self._socket.sendall(payload + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def close(self) -> None:
        self._reader.close()
        self._socket.close()


class _HttpConnection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self._connection = http.client.HTTPConnection(*address, timeout=10)

    def call(self, payload: bytes) -> bytes:
        self._connection.request(
            "POST", "/query", body=payload, headers={"Content-Type": "application/json"}
        )
        response = self._connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise ConnectionError(f"HTTP {response.status}: {body[:200]!r}")
        return body

    def close(self) -> None:
        self._connection.close()


class ClientResult:
    def __init__(self) -> None:
        # (start, latency_s, pool index, decoded reply or None, round trip
        # without client-side JSON, client-side JSON seconds)
        self.samples: List[Tuple[float, float, int, Any, float, float]] = []
        self.errors: List[str] = []


def _client_loop(
    transport: str,
    address: Tuple[str, int],
    pool: List[Dict[str, Any]],
    deadline: List[float],
    start: threading.Barrier,
    result: ClientResult,
) -> None:
    connection: Optional[Any] = None
    try:
        connection = (_SocketConnection if transport == "socket" else _HttpConnection)(address)
        start.wait(timeout=30)
        index = 0
        clock = time.perf_counter
        while True:
            began = clock()
            if began >= deadline[0]:
                return
            payload = json.dumps(pool[index], separators=(",", ":")).encode("utf-8")
            sent = clock()
            raw = connection.call(payload)
            received = clock()
            reply = json.loads(raw)
            done = clock()
            client_json = (sent - began) + (done - received)
            result.samples.append(
                (began, done - began, index, reply, received - sent, client_json)
            )
            index = (index + 1) % len(pool)
    except (OSError, ValueError, threading.BrokenBarrierError) as error:
        result.errors.append(f"{type(error).__name__}: {error}")
        start.abort()
    finally:
        if connection is not None:
            connection.close()


def run_phase(
    transport: str,
    address: Tuple[str, int],
    pools: List[List[Dict[str, Any]]],
    warmup_s: float,
    measure_s: float,
    on_measure_start: Any = None,
) -> Tuple[List[ClientResult], float, float]:
    """Drive one closed-loop client per pool; return results and the measured window.

    Every client connects first; all are then released together, run
    ``warmup_s`` unmeasured and ``measure_s`` measured, and stop at the
    deadline.  Samples that start before the window are warm-up.
    """
    barrier = threading.Barrier(len(pools) + 1)
    results = [ClientResult() for _ in pools]
    deadline = [float("inf")]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(transport, address, pool, deadline, barrier, result),
            daemon=True,
        )
        for pool, result in zip(pools, results)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=30)
    except threading.BrokenBarrierError:
        pass
    measure_from = time.perf_counter() + warmup_s
    measure_to = measure_from + measure_s
    deadline[0] = measure_to
    time.sleep(warmup_s)
    if on_measure_start is not None:
        on_measure_start()
    for thread in threads:
        thread.join(timeout=measure_s + 60)
    return results, measure_from, measure_to
