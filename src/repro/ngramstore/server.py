"""Long-lived query server over one shared :class:`NGramStore`.

The north star is serving n-gram statistics to many consumers, and the
``query`` CLI opens (and throws away) a store per invocation.
:class:`NGramStoreServer` keeps one store open in one process, shares a
single process-wide LRU :class:`~repro.ngramstore.table.BlockCache` across
every partition, and serves up to ``max_clients`` concurrent connections
from a thread each — the store layer's locks (added for exactly this)
make the readers safe, and the cache turns a hot key set into pure
in-memory bisects no matter which connection asked first.

The wire protocol is newline-delimited JSON — one request object per
line, one response object per line, over a plain TCP socket.  The request
schema is the unified one served by
:class:`~repro.ngramstore.api.QueryEngine` (shared verbatim with the HTTP
adapter in :mod:`repro.ngramstore.http`)::

    -> {"op": "get", "key": [3, 7]}
    <- {"ok": true, "found": true, "value": 42}

    -> {"op": "multi_get", "keys": [[3, 7], [9]]}
    <- {"ok": true, "found": [true, false], "values": [42, null]}

    -> {"op": "prefix", "key": [3], "limit": 100}
    <- {"ok": true, "records": [[[3, 7], 42], ...], "truncated": false}

    -> {"op": "top_k", "k": 10, "order": "frequency"}
    <- {"ok": true, "records": [[[0], 981], ...]}

    -> {"op": "complete", "key": [3, 7], "k": 5}
    <- {"ok": true, "completions": [[12, 87], ...], "truncated": false}

    -> {"op": "compare", "key": [3, 7]}       # needs serve --extra-store
    <- {"ok": true, "found_a": true, "value_a": 42,
        "found_b": false, "value_b": null}

    -> {"op": "translate", "terms": [["the", "quick"]]}
    <- {"ok": true, "keys": [[0, 17]]}          # null for unknown terms

    -> {"op": "render", "ngrams": [[0, 17]]}
    <- {"ok": true, "terms": [["the", "quick"]]}

    -> {"op": "stats"} | {"op": "server_stats"} | {"op": "ping"}

Keys travel as JSON arrays of term identifiers (the store's native keys).
``translate`` and ``render`` are the only term-keyed operations: they run
against the dictionary server-side, where it lives, and a client composes
a term-keyed query as translate → id operation → render.  Failures —
including a line that is not JSON at all — come back as
``{"ok": false, "error": ...}`` on the same stream, so one bad request
does not cost the connection.
:class:`StoreClient` is the in-repo client: a
:class:`~repro.ngramstore.api.RemoteStore` that speaks the protocol and
hands back the canonical records, exactly what :class:`NGramStore` itself
returns — the serve-smoke CI step asserts that equivalence byte for byte.

Everything except the framing lives in :class:`StoreServerBase`: store
and ``--extra-store`` opening, the :class:`QueryEngine`, metrics, the
slow-query log, the request → response path :meth:`~StoreServerBase._execute`
and the connection lifecycle (listener, ``max_clients`` bound, accept
loop, shutdown).  :class:`NGramStoreServer` adds newline-JSON framing; the
HTTP server in :mod:`repro.ngramstore.http` adds HTTP/1.1 framing on the
same base, so both transports bound, count and sever connections and
answer, count and log requests identically by construction.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import ServerConfig
from repro.exceptions import StoreConnectionError, StoreError
from repro.ngramstore.api import (
    MAX_PREFIX_RECORDS,
    MAX_TOP_K,
    OPERATIONS,
    READ_OPERATIONS,
    QueryEngine,
    RemoteStore,
    ensure_comparable_vocabulary,
)
from repro.ngramstore.table import BlockCache
from repro.util.metrics import MetricsRegistry, snapshot_quantile
from repro.util.timer import Stopwatch
from repro.util.tracing import SlowQueryLog, TraceContext, attach_trace

__all__ = [
    "MAX_PREFIX_RECORDS",
    "MAX_REQUEST_BYTES",
    "MAX_TOP_K",
    "NGramStoreServer",
    "OPERATIONS",
    "ServerMetrics",
    "StoreClient",
    "StoreServerBase",
    "percentile",
    "register_store_observables",
    "request_key_count",
]

Record = Tuple[Any, Any]

#: Largest accepted request line; anything longer is a protocol error.
MAX_REQUEST_BYTES = 1 << 20

def percentile(sorted_samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample list (must be non-empty)."""
    rank = max(1, min(len(sorted_samples), math.ceil(len(sorted_samples) * fraction)))
    return sorted_samples[rank - 1]


def request_key_count(request: Any) -> int:
    """How many keys a request asks about (for slow-query log lines)."""
    if not isinstance(request, dict):
        return 0
    for field in ("keys", "ngrams", "terms"):
        value = request.get(field)
        if isinstance(value, list):
            return len(value)
    if isinstance(request.get("key"), list):
        return 1
    return 0


class ServerMetrics:
    """Thread-safe per-operation request counts and latency aggregates.

    Backed by a :class:`~repro.util.metrics.MetricsRegistry` (a private
    one unless the caller shares one in): per-operation counters, error
    counters, and fixed-bucket latency histograms, plus per-stage
    histograms fed by request tracing.  The :meth:`snapshot` shape is the
    pre-registry one (``server_stats`` consumers keep working), but the
    percentiles now derive from the histograms — every observation ever
    made weighs in, unlike the old capped sample list that kept only the
    *first* N observations and therefore reported warm-up latency
    forever.  The registry itself is exposed as ``.registry`` so the
    owning server can hang scrape-time gauges (cache, I/O, connections)
    off the same exposition surface.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = time.time()
        self._requests = self.registry.counter(
            "ngramstore_requests_total", "Requests served, by operation", labels=("op",)
        )
        self._request_errors = self.registry.counter(
            "ngramstore_request_errors_total",
            "Requests answered with an error, by operation",
            labels=("op",),
        )
        self._latency = self.registry.histogram(
            "ngramstore_request_seconds",
            "Request latency in seconds, by operation",
            labels=("op",),
        )
        self._stages = self.registry.histogram(
            "ngramstore_stage_seconds",
            "Per-request stage latency in seconds (parse/route/block_read/decode)",
            labels=("stage",),
        )
        self._connections = self.registry.counter(
            "ngramstore_connections_total", "Client connections accepted"
        )

    # Pre-registry attribute surface, preserved for existing consumers.
    @property
    def connections_accepted(self) -> int:
        return int(self._connections.value())

    @property
    def requests(self) -> int:
        return int(self._requests.total())

    @property
    def errors(self) -> int:
        return int(self._request_errors.total())

    def record_connection(self) -> None:
        self._connections.inc()

    def record(self, operation: str, seconds: float, ok: bool) -> None:
        self._requests.inc(op=operation)
        if not ok:
            self._request_errors.inc(op=operation)
        self._latency.observe(seconds, op=operation)

    def record_stage(self, stage: str, seconds: float) -> None:
        self._stages.observe(seconds, stage=stage)

    def snapshot(self) -> Dict[str, Any]:
        """Aggregated counters plus histogram-derived percentiles, JSON-ready."""
        counts = {
            series["labels"]["op"]: int(series["value"])
            for series in self._requests.snapshot()
        }
        errors = {
            series["labels"]["op"]: int(series["value"])
            for series in self._request_errors.snapshot()
        }
        operations: Dict[str, Any] = {}
        for series in self._latency.snapshot():
            operation = series["labels"]["op"]
            count = series["count"]
            if count == 0:
                continue
            total_s = series["sum"]
            operations[operation] = {
                "count": counts.get(operation, count),
                "errors": errors.get(operation, 0),
                "total_ms": round(total_s * 1e3, 3),
                "mean_us": round(total_s / count * 1e6, 1),
                "p50_us": round(snapshot_quantile(series, 0.50) * 1e6, 1),
                "p90_us": round(snapshot_quantile(series, 0.90) * 1e6, 1),
                "p99_us": round(snapshot_quantile(series, 0.99) * 1e6, 1),
                "max_us": round(series["max"] * 1e6, 1),
            }
        stages: Dict[str, Any] = {}
        for series in self._stages.snapshot():
            count = series["count"]
            if count == 0:
                continue
            stages[series["labels"]["stage"]] = {
                "count": count,
                "total_ms": round(series["sum"] * 1e3, 3),
                "mean_us": round(series["sum"] / count * 1e6, 1),
                "p50_us": round(snapshot_quantile(series, 0.50) * 1e6, 1),
                "p99_us": round(snapshot_quantile(series, 0.99) * 1e6, 1),
            }
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "connections_accepted": self.connections_accepted,
            "requests": self.requests,
            "errors": self.errors,
            "operations": operations,
            "stages": stages,
        }


def register_store_observables(
    registry: MetricsRegistry,
    store: Any,
    cache: Optional[BlockCache],
    active_connections: Callable[[], int],
) -> None:
    """Hang scrape-time gauges for a served store off ``registry``.

    The block cache, the reader's I/O counters and the connection set all
    keep live state of their own; callback gauges read them at scrape
    time instead of mirroring every mutation, so the hot path pays
    nothing for exposition.  :class:`StoreServerBase` calls it once per
    server, so both transports expose the same catalog.
    """
    if hasattr(store, "cache_stats"):
        cache_events = registry.gauge(
            "ngramstore_block_cache_events",
            "Block cache counters since startup (monotonic)",
            labels=("event",),
        )

        def _cache_stat(field: str) -> Any:
            return lambda: float(getattr(store.cache_stats(), field))

        for event in ("hits", "misses", "evictions"):
            cache_events.set_callback(_cache_stat(event), event=event)
    if cache is not None:
        registry.gauge(
            "ngramstore_block_cache_capacity_blocks", "Shared block cache capacity"
        ).set_callback(lambda: float(cache.capacity))
        registry.gauge(
            "ngramstore_block_cache_resident_blocks", "Blocks currently cached"
        ).set_callback(lambda: float(len(cache)))
    if hasattr(store, "io_stats"):
        io_events = registry.gauge(
            "ngramstore_io_events",
            "Store I/O counters since startup: blocks decoded, bloom-filter "
            "rejections, mmap-served partitions, cumulative decode seconds",
            labels=("event",),
        )

        def _io_stat(field: str) -> Any:
            return lambda: float(store.io_stats().get(field, 0))

        for event in (
            "blocks_decoded",
            "bloom_rejections",
            "blocks_checksum_failed",
            "mmap_partitions",
            "decode_seconds",
        ):
            io_events.set_callback(_io_stat(event), event=event)
    if hasattr(store, "manifest"):
        registry.gauge(
            "ngramstore_store_records", "Records served by this store"
        ).set_callback(lambda: float(store.stats()["num_records"]))
        registry.gauge(
            "ngramstore_store_partitions", "Partitions served by this store"
        ).set_callback(lambda: float(store.stats()["num_partitions"]))
    if hasattr(store, "shard_index"):
        shard = registry.gauge(
            "ngramstore_shard", "Shard identity of this server", labels=("field",)
        )
        shard.set_callback(lambda: float(store.shard_index), field="index")
        shard.set_callback(lambda: float(store.num_shards), field="num_shards")
    registry.gauge(
        "ngramstore_active_connections", "Open client connections"
    ).set_callback(lambda: float(active_connections()))


def collect_io_counters(store: Any, operation: str) -> Optional[Dict[str, float]]:
    """Live I/O + cache counters, for per-request deltas on read operations.

    ``None`` for operations that never touch blocks (ping, stats, ...) or
    stores that expose neither surface — callers skip the delta entirely.
    """
    if operation not in READ_OPERATIONS:
        return None
    counters: Dict[str, float] = {}
    if hasattr(store, "io_stats"):
        counters.update(store.io_stats())
    if hasattr(store, "cache_stats"):
        stats = store.cache_stats()
        counters["cache_hits"] = stats.hits
        counters["cache_misses"] = stats.misses
    return counters or None


def finish_request_observation(
    metrics: ServerMetrics,
    slow_log: Optional[SlowQueryLog],
    trace: TraceContext,
    bucket: str,
    request: Any,
    elapsed: float,
    ok: bool,
    io_before: Optional[Dict[str, float]],
    io_after: Optional[Dict[str, float]],
) -> None:
    """One request's tail: metrics, stage histograms, maybe a slow-log line.

    Called only from :meth:`StoreServerBase._execute`, so stage attribution
    and the slow-query record shape cannot drift between transports.  When
    I/O counters were captured around the request, the engine's ``read``
    stage is split into ``block_read`` vs ``decode`` using the decode-time
    the store accumulated — the counters are process-wide, so under
    concurrent load the attribution is approximate; over a slow request's
    many blocks it is still the signal that matters.
    """
    io_delta: Optional[Dict[str, float]] = None
    if io_before is not None:
        io_delta = {
            field: (io_after or {}).get(field, 0) - before
            for field, before in io_before.items()
        }
        read_seconds = trace.stages.pop("read", None)
        decode_delta = io_delta.pop("decode_seconds", 0.0)
        if read_seconds is not None:
            decode = max(0.0, min(read_seconds, decode_delta))
            trace.add_stage("decode", decode)
            trace.add_stage("block_read", read_seconds - decode)
    metrics.record(bucket, elapsed, ok)
    for stage, seconds in trace.stages.items():
        metrics.record_stage(stage, seconds)
    if slow_log is not None and slow_log.should_log(elapsed):
        entry: Dict[str, Any] = {
            "trace_id": trace.trace_id,
            "op": bucket,
            "ok": ok,
            "duration_ms": round(elapsed * 1e3, 3),
            "key_count": request_key_count(request),
            "stages_ms": trace.stages_ms(),
        }
        if io_delta is not None:
            entry["io"] = {
                field: round(value, 6) if isinstance(value, float) else value
                for field, value in io_delta.items()
            }
        slow_log.record(entry)


class StoreServerBase:
    """Everything a store server does apart from its framing.

    Construct with a store directory (opened behind one shared block
    cache) or a caller-managed store object; ``config.extra_store`` mounts
    the comparison store.  The base owns the :class:`QueryEngine`, the
    metrics, the slow-query log, :meth:`_execute` (the one request →
    response path) and the whole connection lifecycle: one listener, an
    accept loop that takes one of ``max_clients`` handler slots before
    each accept (so bursts beyond the bound wait in the listen backlog),
    one handler thread per connection, and a :meth:`close` that severs
    every open connection.  A subclass names its ``protocol`` and speaks
    its framing over one accepted connection in :meth:`_handle_connection`.
    """

    #: Transport name, as printed by ``repro serve``.
    protocol = ""

    def __init__(self, store: Any, config: Optional[ServerConfig] = None) -> None:
        self.config = config if config is not None else ServerConfig()
        from repro.ngramstore.lsm import open_store_auto

        if isinstance(store, (str, os.PathLike)):
            self.cache: Optional[BlockCache] = BlockCache(self.config.cache_blocks)
            # Auto-detects the directory kind: a plain store opens as an
            # NGramStore, an LSM directory as a GenerationView over its
            # live generations — the serving tier is ingestion-agnostic.
            self.store = open_store_auto(str(store), cache=self.cache)
        else:
            # Caller-managed store (an NGramStore, or a ShardView over
            # one): its cache setup is its own business — self.cache is
            # None when it uses private per-table caches, so stats
            # reporting falls back to the store's aggregation instead of
            # an orphan cache no table feeds.
            self.store = store
            self.cache = getattr(store, "cache", None)
        self.extra_store: Any = None
        if self.config.extra_store is not None:
            # The comparison store shares the process-wide block cache when
            # one exists (entries are namespaced by path, so the two stores
            # never collide) and must speak the served store's vocabulary.
            try:
                self.extra_store = open_store_auto(
                    self.config.extra_store, cache=self.cache
                )
                ensure_comparable_vocabulary(self.store, self.extra_store)
            except Exception:
                if self.extra_store is not None:
                    self.extra_store.close()
                self.store.close()
                raise
        self.engine = QueryEngine(self.store, extra_store=self.extra_store)
        self.metrics = ServerMetrics()
        self.slow_log: Optional[SlowQueryLog] = None
        if self.config.slow_query_ms is not None:
            self.slow_log = SlowQueryLog(
                self.config.slow_query_ms, self.config.slow_query_log
            )
        self.host = self.config.host
        self.port = self.config.port
        self._thread: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._slots = threading.Semaphore(self.config.max_clients)
        self._connections: "set[socket.socket]" = set()
        self._connections_lock = threading.Lock()
        register_store_observables(
            self.metrics.registry, self.store, self.cache, self._active_connections
        )

    def _active_connections(self) -> int:
        with self._connections_lock:
            return len(self._connections)

    # ----------------------------------------------------------- lifecycle
    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve in background threads; returns (host, port)."""
        if self._thread is not None:
            raise StoreError("server already started")
        self._listener = socket.create_server(
            (self.host, self.port), backlog=self.config.max_clients
        )
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self._accept_loop,
            name=f"ngramstore-{self.protocol}",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def close(self) -> None:
        """Stop serving, sever open connections, then release the log and stores."""
        if self._shutdown.is_set():
            return
        with self._connections_lock:
            # Under the lock, so the accept loop either registered a
            # connection before this snapshot or sees the flag and drops it.
            self._shutdown.set()
            connections = list(self._connections)
        if self._thread is not None:
            # shutdown() before close(): on Linux, close() alone does not
            # wake a thread blocked in accept() or recv() on that socket.
            for endpoint in [self._listener, *connections]:
                try:
                    endpoint.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    endpoint.close()
                except OSError:
                    pass
            self._thread.join(timeout=5.0)
        if self.slow_log is not None:
            self.slow_log.close()
        if self.extra_store is not None:
            self.extra_store.close()
        self.store.close()

    def __enter__(self) -> "StoreServerBase":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------- observation
    def cache_summary(self) -> Dict[str, Any]:
        """Block-cache counters, JSON-ready (the ``server_stats`` shape).

        ``store.cache_stats()`` covers both layouts — the shared cache's
        counters, or the per-table aggregate for caller-managed stores;
        capacity/residency only exist when one shared cache is in play.
        The shared cache object outlives a closed store, so the CLI can
        still build its shutdown report from this.
        """
        stats = self.store.cache_stats()
        summary: Dict[str, Any] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": round(stats.hit_rate, 6),
        }
        if self.cache is not None:
            summary["capacity_blocks"] = self.cache.capacity
            summary["resident_blocks"] = len(self.cache)
        return summary

    def server_stats(self) -> Dict[str, Any]:
        """Request metrics plus cache counters: the ``server_stats`` answer."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache_summary()
        snapshot["active_connections"] = self._active_connections()
        return snapshot

    def metrics_text(self) -> str:
        """The full Prometheus exposition for this server.

        A store that is itself an observable component (a
        :class:`~repro.ngramstore.router.ShardRouter` or
        :class:`~repro.ngramstore.router.ReplicaPool` fronted by this
        server) carries its own ``metrics_registry``; its series are
        appended so a gateway deployment exposes router fan-out and
        quarantine series from the same scrape.
        """
        text = self.metrics.registry.render_prometheus()
        store_registry = getattr(self.store, "metrics_registry", None)
        if store_registry is not None and store_registry is not self.metrics.registry:
            text += store_registry.render_prometheus()
        return text

    # ------------------------------------------------------------- serving
    def _execute(self, request: Any, parse_seconds: float = 0.0) -> Dict[str, Any]:
        """One decoded request -> one response dict, with metrics recorded.

        Every transport calls this; they differ only in how bytes become
        the request object and how the response object becomes bytes.
        Pass an exception as ``request`` to report a decode failure
        through the same error/metrics path.  ``server_stats`` and
        ``metrics`` are transport state and are answered here; every
        store query goes through the shared :class:`QueryEngine`.

        ``parse_seconds`` is time the transport already spent decoding the
        request bytes; it counts toward the request's latency and shows up
        as the ``parse`` stage.
        """
        watch = Stopwatch()
        operation = "invalid"
        trace = TraceContext.from_request(request)
        if parse_seconds:
            trace.add_stage("parse", parse_seconds)
        io_before: Optional[Dict[str, float]] = None
        try:
            if isinstance(request, Exception):
                raise request
            if not isinstance(request, dict):
                raise StoreError("request must be a JSON object")
            operation = str(request.get("op"))
            if operation == "server_stats":
                response = self.server_stats()
            elif operation == "metrics":
                response = {"text": self.metrics_text()}
            else:
                io_before = collect_io_counters(self.store, operation)
                response = self.engine.handle(request, trace=trace)
            response["ok"] = True
        except (StoreError, KeyError, TypeError, ValueError) as error:
            response = {"ok": False, "error": f"{error}"}
        ok = response["ok"]
        elapsed = watch.elapsed() + parse_seconds
        # Clamp to the known set: client-chosen strings must not
        # grow the metrics dict without bound on a long-lived server.
        bucket = operation if operation in OPERATIONS else "invalid"
        io_after = (
            collect_io_counters(self.store, operation) if io_before is not None else None
        )
        finish_request_observation(
            self.metrics,
            self.slow_log,
            trace,
            bucket,
            request,
            elapsed,
            ok,
            io_before,
            io_after,
        )
        return response


    # --------------------------------------------------------- connections
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            # A free handler slot is a precondition for accepting: the
            # kernel backlog, not a thread pile-up, absorbs bursts beyond
            # max_clients.
            self._slots.acquire()
            try:
                connection, address = self._listener.accept()
            except OSError:
                self._slots.release()
                if self._shutdown.is_set():
                    return
                # Transient accept failures (ECONNABORTED from a client
                # resetting in the backlog, EMFILE under fd pressure) must
                # not permanently stop a live server; back off and retry.
                time.sleep(0.05)
                continue
            with self._connections_lock:
                if self._shutdown.is_set():
                    connection.close()
                    self._slots.release()
                    return
                self._connections.add(connection)
            self.metrics.record_connection()
            handler = threading.Thread(
                target=self._serve_connection,
                args=(connection, address),
                name=f"ngramstore-{self.protocol}-client",
                daemon=True,
            )
            try:
                handler.start()
            except RuntimeError:
                # Thread exhaustion: drop this connection, keep serving.
                self._release_connection(connection)

    def _serve_connection(self, connection: socket.socket, address: Any) -> None:
        try:
            self._handle_connection(connection, address)
        except OSError:
            pass  # client went away (or close() severed the socket underneath)
        finally:
            self._release_connection(connection)

    def _release_connection(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(connection)
        try:
            connection.close()
        except OSError:
            pass
        self._slots.release()

    def _handle_connection(self, connection: socket.socket, address: Any) -> None:
        """Serve requests on one accepted connection until either side ends it."""
        raise NotImplementedError


class NGramStoreServer(StoreServerBase):
    """Serves one store to concurrent socket clients; see the module docstring."""

    protocol = "socket"

    def _handle_connection(self, connection: socket.socket, address: Any) -> None:
        with connection.makefile("rb") as reader:
            while not self._shutdown.is_set():
                line = reader.readline(MAX_REQUEST_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_REQUEST_BYTES:
                    self._respond(
                        connection, {"ok": False, "error": "request exceeds 1 MiB"}
                    )
                    return
                parse_watch = Stopwatch()
                try:
                    request: Any = json.loads(line)
                except ValueError as error:
                    request = StoreError(f"request is not valid JSON: {error}")
                parse_seconds = parse_watch.elapsed()
                if not self._respond(
                    connection, self._execute(request, parse_seconds=parse_seconds)
                ):
                    return

    def _respond(self, connection: socket.socket, response: Dict[str, Any]) -> bool:
        try:
            payload = json.dumps(response, separators=(",", ":"))
        except (TypeError, ValueError) as error:
            # Non-JSON-serialisable store values (arbitrary build_store
            # payloads) are a per-request failure, not a dead connection.
            payload = json.dumps(
                {"ok": False, "error": f"value is not JSON-serialisable: {error}"}
            )
        try:
            connection.sendall(payload.encode("utf-8") + b"\n")
            return True
        except OSError:
            return False


class StoreClient(RemoteStore):
    """Socket client for :class:`NGramStoreServer`'s newline-JSON protocol.

    A :class:`~repro.ngramstore.api.RemoteStore`: the full ``StoreAPI``
    surface over one TCP connection, returning the canonical records
    (tuple-compatible with the pre-redesign plain tuples).  One instance
    owns one connection and is not itself thread-safe; concurrent callers
    each open their own (the server is built for many connections).

    Connection handling is resilient by default because every operation
    is an idempotent read: the initial connect retries ``max_retries``
    times with exponential ``backoff`` (a server still binding its socket
    answers ``ECONNREFUSED`` for a moment), and a dropped connection
    mid-stream (server restart, idle reset) triggers a bounded
    reconnect-and-resend instead of failing the first caller.  A dead
    endpoint surfaces as :class:`StoreConnectionError`, which replica
    pools treat as "fail over", unlike an application
    :class:`StoreError` the server answered.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        read_timeout: float = 30.0,
        max_retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        if max_retries < 0:
            raise StoreError(f"max_retries must be >= 0, got {max_retries}")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.last_trace_id: Optional[str] = None
        self._socket: Optional[socket.socket] = None
        self._reader: Optional[Any] = None
        self._closed = False
        self._connect()

    # ------------------------------------------------------------ plumbing
    def _drop(self) -> None:
        """Forget the current connection (it is broken or being replaced)."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def _connect(self) -> None:
        """Establish the connection, retrying refused/reset attempts.

        ``ECONNREFUSED`` right after a server (re)start is a timing
        artifact, not a verdict — a bounded backoff loop absorbs it; a
        server that is truly gone becomes :class:`StoreConnectionError`
        after the last attempt.
        """
        self._drop()
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                self._socket = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                self._socket.settimeout(self.read_timeout)
                self._reader = self._socket.makefile("rb")
                return
            except OSError as error:
                self._drop()
                if attempt + 1 >= attempts:
                    raise StoreConnectionError(
                        f"cannot connect to store server {self.host}:{self.port} "
                        f"after {attempts} attempts: {error}"
                    ) from error
                time.sleep(self.backoff * (2 ** attempt))

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise StoreError("client is closed")
        # Every request leaves this client with a trace ID (an existing one
        # is respected — a router propagating a caller's ID wins), and the
        # ID is kept so the caller can join client-side latency to the
        # server's slow-query log line for the same request.
        self.last_trace_id = attach_trace(request)
        attempts = self.max_retries + 1
        response: Any = None
        for attempt in range(attempts):
            try:
                if self._socket is None:
                    self._connect()
                response = self._exchange(request)
                break
            except OSError as error:
                # Reads are idempotent, so resending after a reconnect is
                # safe; a connection that stays dead through the retry
                # budget is a dead endpoint.
                self._drop()
                if attempt + 1 >= attempts:
                    raise StoreConnectionError(
                        f"lost connection to store server {self.host}:{self.port}: "
                        f"{error}"
                    ) from error
                time.sleep(self.backoff * (2 ** attempt))
        if not response.get("ok"):
            raise StoreError(f"server error: {response.get('error', 'unknown')}")
        return response

    def _exchange(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request line and read its response line."""
        payload = json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"
        self._socket.sendall(payload)
        line = self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._closed = True
        self._drop()

    def __enter__(self) -> "StoreClient":
        return self
