"""Seeded workload replay against any :class:`StoreAPI` target.

The serving tier's latency claims are only as good as the workload that
produced them, so this harness pins the workload down: a seeded generator
builds a deterministic operation sequence per *mix* (the shapes production
traffic actually takes), a closed-loop worker pool replays it against any
``StoreAPI`` — a local store, one socket/HTTP client, a replica pool, a
shard router — and the per-mix latencies land in the same fixed-bucket
histograms the servers use (:mod:`repro.util.metrics`), so the reported
p50/p95/p99 are *histogram-derived* and therefore mergeable and directly
comparable with server-side ``/metrics`` series.

Mixes
-----
``hot_key``
    Single-key ``get`` with Zipf-skewed key popularity — the cache-friendly
    hot-head traffic that dominates real lookup services.
``prefix_heavy``
    ``prefix`` scans under 1–2-token prefixes — the block-decode-heavy
    shape (autocomplete, language-model context expansion).
``batch``
    ``multi_get`` of ``batch_size`` uniformly drawn keys — the batched
    client shape that saves one round trip per key.
``mixed``
    A blend of the above in fixed proportions (70% get / 20% prefix /
    10% batch) — the steady-state composite.

The report is schema-stable JSON (see :data:`REPORT_SCHEMA`) with per-mix
throughput and latency quantiles, plus the outcome of asserting the
caller's SLO targets — CI fails the build on a violation via the exit
code of ``repro loadgen``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import StoreError
from repro.util.metrics import Histogram
from repro.util.timer import Stopwatch

__all__ = [
    "MIXES",
    "REPORT_SCHEMA",
    "LoadgenConfig",
    "SLOTargets",
    "build_operations",
    "check_slos",
    "run_loadgen",
]

#: Report schema identifier — bump only on breaking shape changes.
REPORT_SCHEMA = "ngramstore-loadgen/v1"

#: Workload mixes in canonical order.
MIXES = ("hot_key", "prefix_heavy", "batch", "mixed")

#: An operation is ``(kind, payload)`` where kind names a StoreAPI method.
Operation = Tuple[str, Any]


@dataclass(frozen=True)
class LoadgenConfig:
    """One replay run: which mixes, how many requests, how generated.

    ``requests_per_mix`` is the closed-loop total per mix (split across
    ``concurrency`` workers); ``universe`` caps how many distinct keys the
    generator samples from the store, and ``zipf_s`` shapes the hot-key
    skew (higher = hotter head).
    """

    mixes: Tuple[str, ...] = MIXES
    requests_per_mix: int = 200
    concurrency: int = 4
    seed: int = 1
    batch_size: int = 8
    universe: int = 256
    zipf_s: float = 1.2
    prefix_limit: int = 50

    def __post_init__(self) -> None:
        unknown = [mix for mix in self.mixes if mix not in MIXES]
        if unknown:
            raise StoreError(
                f"unknown mix(es) {', '.join(unknown)}; choose from {', '.join(MIXES)}"
            )
        if not self.mixes:
            raise StoreError("at least one mix is required")
        if self.requests_per_mix <= 0:
            raise StoreError(
                f"requests_per_mix must be positive, got {self.requests_per_mix}"
            )
        if self.concurrency <= 0:
            raise StoreError(f"concurrency must be positive, got {self.concurrency}")
        if self.batch_size <= 0:
            raise StoreError(f"batch_size must be positive, got {self.batch_size}")
        if self.universe <= 0:
            raise StoreError(f"universe must be positive, got {self.universe}")


@dataclass(frozen=True)
class SLOTargets:
    """Latency/throughput floors the replay must meet; ``None`` = unchecked."""

    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    min_throughput: Optional[float] = None

    def any_set(self) -> bool:
        return any(
            value is not None
            for value in (self.p50_ms, self.p95_ms, self.p99_ms, self.min_throughput)
        )


# --------------------------------------------------------------- generation
def _zipf_weights(count: int, s: float) -> List[float]:
    return [1.0 / (rank**s) for rank in range(1, count + 1)]


def _key_universe(store: Any, size: int) -> List[Tuple[Any, ...]]:
    """The keys the workload draws from, hottest first.

    ``top_k`` by frequency is the natural popularity order: rank 1 of the
    Zipf draw lands on the store's genuinely most frequent n-gram, so the
    hot-key mix exercises the same blocks a real hot head would.
    """
    records = store.top_k(size, order="frequency")
    keys = [tuple(ngram) for ngram, _ in records]
    if not keys:
        raise StoreError("cannot generate a workload against an empty store")
    return keys


def build_operations(
    store: Any, config: LoadgenConfig
) -> Dict[str, List[Operation]]:
    """Deterministic per-mix operation sequences for one replay run.

    Generation is single-threaded from one seeded PRNG, so the workload —
    every key, prefix and batch, in order — is a pure function of
    ``(store contents, config)``.  Workers only race over *who executes
    which position*, never over what the workload is.
    """
    import random

    rng = random.Random(config.seed)
    keys = _key_universe(store, config.universe)
    zipf = _zipf_weights(len(keys), config.zipf_s)

    def hot_key() -> Operation:
        return ("get", rng.choices(keys, weights=zipf)[0])

    def prefix_heavy() -> Operation:
        key = rng.choice(keys)
        depth = min(len(key), rng.randint(1, 2))
        return ("prefix", (key[:depth], config.prefix_limit))

    def batch() -> Operation:
        return ("multi_get", [rng.choice(keys) for _ in range(config.batch_size)])

    def mixed() -> Operation:
        roll = rng.random()
        if roll < 0.70:
            return hot_key()
        if roll < 0.90:
            return prefix_heavy()
        return batch()

    generators: Dict[str, Callable[[], Operation]] = {
        "hot_key": hot_key,
        "prefix_heavy": prefix_heavy,
        "batch": batch,
        "mixed": mixed,
    }
    return {
        mix: [generators[mix]() for _ in range(config.requests_per_mix)]
        for mix in config.mixes
    }


# ------------------------------------------------------------------ replay
def _execute(store: Any, operation: Operation) -> None:
    kind, payload = operation
    if kind == "get":
        store.get(payload)
    elif kind == "prefix":
        tokens, limit = payload
        store.prefix(tokens, limit=limit)
    elif kind == "multi_get":
        store.multi_get(payload)
    else:  # pragma: no cover - build_operations only emits the above
        raise StoreError(f"unknown loadgen operation {kind!r}")


def _replay_mix(
    store: Any,
    operations: Sequence[Operation],
    concurrency: int,
    factory: Optional[Callable[[], Any]] = None,
) -> Tuple[Histogram, int, float]:
    """Closed-loop replay of one mix; ``(latencies, errors, wall_seconds)``.

    Closed-loop means each worker issues its next request only after the
    previous one returned — concurrency is the open-request ceiling, and
    measured throughput is what the target actually sustained rather than
    an offered rate.  When ``factory`` is given each worker builds (and
    closes) its own client — required for socket clients, which pin one
    connection each; without it all workers share ``store``.
    """
    latencies = Histogram(
        "loadgen_request_seconds", "Client-observed request latency", ()
    )
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    errors = [0] * concurrency

    def worker(slot: int) -> None:
        client = store if factory is None else factory()
        try:
            while True:
                with cursor_lock:
                    position = cursor["next"]
                    if position >= len(operations):
                        return
                    cursor["next"] = position + 1
                watch = Stopwatch()
                try:
                    _execute(client, operations[position])
                except StoreError:
                    errors[slot] += 1
                latencies.observe(watch.elapsed())
        finally:
            if factory is not None:
                client.close()

    wall = Stopwatch()
    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"loadgen-{slot}")
        for slot in range(min(concurrency, len(operations)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, sum(errors), wall.elapsed()


def run_loadgen(
    store: Any,
    config: Optional[LoadgenConfig] = None,
    *,
    factory: Optional[Callable[[], Any]] = None,
    target: str = "store",
) -> Dict[str, Any]:
    """Replay every configured mix against ``store``; returns the report.

    ``store`` generates the workload (it must answer ``top_k``) and, when
    ``factory`` is ``None``, serves it too — so it must then be safe to
    share across threads (a direct :class:`NGramStore` is; a socket
    :class:`StoreClient` is not — pass a ``factory`` building one client
    per worker for those).

    The report is JSON-ready and schema-stable: per-mix request counts,
    errors, closed-loop throughput, and histogram-derived latency
    quantiles in milliseconds (p50/p95/p99 interpolated within fixed
    buckets, clamped to the observed range — the same estimator the
    servers' ``/metrics`` consumers use).
    """
    config = config if config is not None else LoadgenConfig()
    workload = build_operations(store, config)
    mixes: Dict[str, Any] = {}
    for mix in config.mixes:
        latencies, errors, wall_seconds = _replay_mix(
            store, workload[mix], config.concurrency, factory
        )
        count = latencies.count()
        mixes[mix] = {
            "requests": count,
            "errors": errors,
            "wall_s": round(wall_seconds, 6),
            "throughput_rps": round(count / wall_seconds, 3) if wall_seconds else 0.0,
            "p50_ms": round(latencies.quantile(0.50) * 1e3, 3),
            "p95_ms": round(latencies.quantile(0.95) * 1e3, 3),
            "p99_ms": round(latencies.quantile(0.99) * 1e3, 3),
            "max_ms": round(latencies.max() * 1e3, 3),
        }
    return {
        "schema": REPORT_SCHEMA,
        "target": target,
        "config": {
            "mixes": list(config.mixes),
            "requests_per_mix": config.requests_per_mix,
            "concurrency": config.concurrency,
            "seed": config.seed,
            "batch_size": config.batch_size,
            "universe": config.universe,
            "zipf_s": config.zipf_s,
        },
        "mixes": mixes,
    }


# --------------------------------------------------------------------- SLOs
def check_slos(report: Dict[str, Any], slo: SLOTargets) -> List[str]:
    """Violations of ``slo`` in ``report``, as human-readable strings.

    Empty list = all targets met.  Every mix is held to the same targets —
    a mix that is allowed to be slower belongs in a separate run.
    """
    violations: List[str] = []
    for mix, stats in sorted(report.get("mixes", {}).items()):
        for quantile in ("p50_ms", "p95_ms", "p99_ms"):
            limit = getattr(slo, quantile)
            if limit is not None and stats[quantile] > limit:
                violations.append(
                    f"{mix}: {quantile.replace('_ms', '')} "
                    f"{stats[quantile]:.3f} ms > SLO {limit:.3f} ms"
                )
        if slo.min_throughput is not None and stats["throughput_rps"] < slo.min_throughput:
            violations.append(
                f"{mix}: throughput {stats['throughput_rps']:.1f} rps "
                f"< SLO {slo.min_throughput:.1f} rps"
            )
        if stats["errors"]:
            violations.append(f"{mix}: {stats['errors']} request(s) failed")
    return violations
