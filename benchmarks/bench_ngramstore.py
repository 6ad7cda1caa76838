"""NGramStore build cost, query latency and size-vs-codec comparison.

Counts n-grams on the NYT-like dataset once, then for every available
codec builds the store (total-order-sort job + table writing), measures
point-lookup and prefix-scan latency against the finished store, and
records the on-disk footprint.  The comparison is exported as a JSON
report (``NGRAMSTORE_REPORT`` environment variable, default
``ngramstore_report.json``) — the CI benchmark smoke job uploads that
file as an artifact.
"""

from __future__ import annotations

import json
import os
import random
import time

from benchmarks.conftest import run_once
from repro.algorithms import count_ngrams
from repro.config import ServerConfig, StoreConfig
from repro.harness.report import format_table
from repro.ngramstore import (
    NGramStore,
    NGramStoreServer,
    StoreClient,
    TopKAccumulator,
    build_store,
)
from repro.ngramstore.table import top_k_records
from repro.util.codecs import available_codecs

#: Point lookups timed per codec (hot after the first pass over the keys).
NUM_POINT_QUERIES = 2000

#: Prefix scans timed per codec.
NUM_PREFIX_QUERIES = 200

RECORDS_PER_BLOCK = 256


def _store_size_bytes(store_dir):
    return sum(
        os.path.getsize(os.path.join(store_dir, name))
        for name in os.listdir(store_dir)
        if name.endswith(".ngt")
    )


def _bench_codec(codec, statistics, vocabulary, root):
    store_dir = os.path.join(root, f"store-{codec}")
    build_started = time.perf_counter()
    build_store(
        statistics.items(),
        store_dir,
        store=StoreConfig(num_partitions=4, codec=codec, records_per_block=RECORDS_PER_BLOCK),
        vocabulary=vocabulary,
    )
    build_seconds = time.perf_counter() - build_started

    rng = random.Random(17)
    keys = sorted(statistics.as_dict())
    probes = [rng.choice(keys) for _ in range(NUM_POINT_QUERIES)]
    prefixes = [rng.choice(keys)[:1] for _ in range(NUM_PREFIX_QUERIES)]

    with NGramStore.open(store_dir) as store:
        point_started = time.perf_counter()
        for key in probes:
            store.get(key)
        point_seconds = time.perf_counter() - point_started

        prefix_started = time.perf_counter()
        matched = 0
        for prefix in prefixes:
            for _ in store.prefix(prefix):
                matched += 1
        prefix_seconds = time.perf_counter() - prefix_started

        top = store.top_k(10)
        stats = store.cache_stats()

    return {
        "codec": codec,
        "num_ngrams": len(keys),
        "build_s": round(build_seconds, 4),
        "store_bytes": _store_size_bytes(store_dir),
        "point_us": round(point_seconds / NUM_POINT_QUERIES * 1e6, 2),
        "prefix_us": round(prefix_seconds / NUM_PREFIX_QUERIES * 1e6, 2),
        "prefix_matches": matched,
        "top1": " ".join(str(term) for term in top[0][0]) if top else "",
        "cache_hit_rate": round(stats.hit_rate, 4),
    }


def _compare_codecs(spec, tau=3, sigma=4):
    collection = spec.build()
    result = count_ngrams(collection, min_frequency=tau, max_length=sigma)
    root = os.path.join(
        os.environ.get("NGRAMSTORE_WORKDIR", "reports"), "ngramstore-bench"
    )
    os.makedirs(root, exist_ok=True)
    return [
        _bench_codec(codec, result.statistics, collection.vocabulary, root)
        for codec in available_codecs()
    ]


def _bench_top_k_skipping(num_records=40_000, records_per_block=256, ks=(1, 10, 100)):
    """Top-k on a frequency-skewed store: blocks read with vs without summaries.

    The store mimics a real n-gram store's shape — term identifiers are
    assigned in descending collection frequency, so frequency decays along
    the key order — which is exactly when per-block max summaries pay off:
    once the heap floor rises past the tail blocks' maxima, they are
    skipped unread.
    """
    rng = random.Random(23)
    records = [
        ((index // 13, index % 13, index), max(1, num_records - index + rng.randint(0, 9)))
        for index in range(num_records)
    ]
    root = os.path.join(
        os.environ.get("NGRAMSTORE_WORKDIR", "reports"), "ngramstore-topk"
    )
    store_dir = os.path.join(root, "skewed-store")
    build_store(
        records,
        store_dir,
        store=StoreConfig(num_partitions=4, records_per_block=records_per_block),
    )
    rows = []
    with NGramStore.open(store_dir) as store:
        total_blocks = sum(
            store._table(index).num_blocks for index in range(store.num_partitions)
        )
        for k in ks:
            reference = top_k_records(iter(records), k, "frequency")

            skip_started = time.perf_counter()
            accumulator = TopKAccumulator(k)
            store.top_k_into(accumulator)
            skip_seconds = time.perf_counter() - skip_started

            scan_started = time.perf_counter()
            full_scan = top_k_records(store.items(), k, "frequency")
            scan_seconds = time.perf_counter() - scan_started

            assert accumulator.results() == reference
            assert full_scan == reference
            rows.append(
                {
                    "k": k,
                    "blocks_total": total_blocks,
                    "blocks_scanned": accumulator.blocks_scanned,
                    "blocks_skipped": accumulator.blocks_skipped,
                    "skip_ms": round(skip_seconds * 1e3, 3),
                    "full_scan_ms": round(scan_seconds * 1e3, 3),
                    "speedup": round(scan_seconds / skip_seconds, 2) if skip_seconds else None,
                }
            )
    return rows


def test_ngramstore_top_k_block_skipping(benchmark):
    rows = run_once(benchmark, _bench_top_k_skipping)

    print("\n=== NGramStore top-k block skipping (skewed store) ===")
    print(format_table(rows))

    report_path = os.environ.get(
        "NGRAMSTORE_TOPK_REPORT", "ngramstore_topk_report.json"
    )
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
    print(f"\nwrote top-k block-skip comparison to {report_path}")

    # The acceptance bar: on a skewed store the summary-guided pass reads
    # strictly fewer blocks than the full scan for every k.
    for row in rows:
        assert row["blocks_scanned"] + row["blocks_skipped"] == row["blocks_total"]
        assert row["blocks_scanned"] < row["blocks_total"]
        assert row["blocks_skipped"] > 0


def _time_us(call, repeats):
    """Mean wall-clock microseconds per invocation of ``call``."""
    started = time.perf_counter()
    for _ in range(repeats):
        call()
    return round((time.perf_counter() - started) / repeats * 1e6, 2)


def _serving_records(count=6000, seed=41):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, 120) for _ in range(rng.randint(1, 4))))
    return [(key, rng.randint(1, 10_000)) for key in sorted(keys)]


def _bench_local_read_paths(records, store_dir, miss_probes=400):
    """mmap vs file I/O latency, and the Bloom point-miss fast path."""
    expected = dict(records)
    hit_keys = [key for key, _ in records[:: max(1, len(records) // 500)]]
    rng = random.Random(97)
    miss_keys = []
    while len(miss_keys) < miss_probes:
        key = tuple(rng.randint(0, 120) for _ in range(3))
        if key not in expected:
            miss_keys.append(key)

    rows = {}
    for label, use_mmap in (("mmap", True), ("file_io", False)):
        with NGramStore.open(store_dir, use_mmap=use_mmap) as store:
            for key in hit_keys:  # warm the block cache identically
                assert store.get(key) == expected[key]
            point_hit_us = _time_us(
                lambda store=store: [store.get(key) for key in hit_keys], 5
            ) / len(hit_keys)
            point_miss_us = _time_us(
                lambda store=store: [store.get(key) for key in miss_keys], 5
            ) / len(miss_keys)
            first_terms = sorted({key[0] for key in expected})[:40]
            prefix_us = _time_us(
                lambda store=store: [store.prefix((term,)) for term in first_terms], 3
            ) / len(first_terms)
            io_stats = store.io_stats()
            rows[label] = {
                "point_hit_us": round(point_hit_us, 2),
                "point_miss_us": round(point_miss_us, 2),
                "prefix_us": round(prefix_us, 2),
                "mmap_partitions": io_stats["mmap_partitions"],
            }

    # The Bloom fast path, counter-asserted per miss: a filtered miss must
    # decode zero data blocks.
    with NGramStore.open(store_dir) as store:
        filtered = decoded_during_filtered = unfiltered = 0
        for key in miss_keys:
            before = store.io_stats()
            assert store.get(key) is None
            after = store.io_stats()
            if after["bloom_rejections"] > before["bloom_rejections"]:
                filtered += 1
                decoded_during_filtered += (
                    after["blocks_decoded"] - before["blocks_decoded"]
                )
            else:
                unfiltered += 1
        rows["bloom"] = {
            "misses_probed": len(miss_keys),
            "misses_filtered": filtered,
            "misses_unfiltered": unfiltered,
            "blocks_decoded_on_filtered_misses": decoded_during_filtered,
        }
    return rows


def _bench_batching(records, store_dir, batch=64, repeats=30):
    """Point vs batched round trips over one live socket server."""
    expected = dict(records)
    rng = random.Random(71)
    batch_keys = [rng.choice(records)[0] for _ in range(batch)]
    reference = [expected[key] for key in batch_keys]
    prefix_batch = [(term,) for term in sorted({key[0] for key in expected})[:8]]

    with NGramStoreServer(
        store_dir, config=ServerConfig(port=0, cache_blocks=512)
    ) as server, StoreClient(server.host, server.port) as client:
        assert client.multi_get(batch_keys) == reference
        point_us = _time_us(
            lambda: [client.get(key) for key in batch_keys], repeats
        ) / len(batch_keys)
        batch_us = _time_us(lambda: client.multi_get(batch_keys), repeats)
        sequential_prefix_us = _time_us(
            lambda: [client.prefix(prefix) for prefix in prefix_batch], repeats
        )
    return {
        "point_us": round(point_us, 2),
        "point_requests_per_s": round(1e6 / point_us),
        "multi_get_batch_us": batch_us,
        "multi_get_us_per_key": round(batch_us / len(batch_keys), 2),
        "sequential_prefix_us": sequential_prefix_us,
        "batch_size": batch,
        # The headline number: one batched round trip for N keys versus N
        # single-key round trips.
        "speedup_batch_vs_points": round(point_us * batch / batch_us, 2),
    }


def _bench_serving_fast_path():
    records = _serving_records()
    config = StoreConfig(num_partitions=3, records_per_block=64)
    root = os.path.join(
        os.environ.get("NGRAMSTORE_WORKDIR", "reports"), "ngramstore-serve"
    )
    store_dir = os.path.join(root, "store")
    build_store(records, store_dir, store=config)

    return {
        "schema_version": 4,
        "store": {
            "num_records": len(records),
            "num_partitions": config.num_partitions,
            "records_per_block": config.records_per_block,
            "bloom_bits_per_key": config.bloom_bits_per_key,
        },
        "local": _bench_local_read_paths(records, store_dir),
        "batching": _bench_batching(records, store_dir),
    }


def test_ngramstore_serving_fast_path(benchmark):
    report = run_once(benchmark, _bench_serving_fast_path)

    print("\n=== NGramStore serving fast path (local read paths) ===")
    print(format_table([{"path": name, **row} for name, row in report["local"].items() if name != "bloom"]))
    print("\n=== Batched vs point round trips (live socket server) ===")
    print(format_table([report["batching"]]))
    bloom = report["local"]["bloom"]
    speedup = report["batching"]["speedup_batch_vs_points"]
    print(
        f"\nbloom: {bloom['misses_filtered']}/{bloom['misses_probed']} misses filtered, "
        f"{bloom['blocks_decoded_on_filtered_misses']} blocks decoded for them; "
        f"batched vs per-key round-trip speedup: {speedup}x"
    )

    report_path = os.environ.get("NGRAMSTORE_BENCH_REPORT", "BENCH_ngramstore.json")
    parent = os.path.dirname(report_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote serving fast-path baseline to {report_path}")

    # Acceptance bars for the raw-speed serving path:
    # 1. One batched multi_get of N keys beats N single-key round-trips
    #    by >= 3x.
    assert report["batching"]["batch_size"] == 64
    assert speedup >= 3.0, f"batched speedup {speedup}x < 3x"
    # 2. Bloom-filtered point misses decode zero data blocks, by counter.
    assert bloom["misses_filtered"] > 0
    assert bloom["blocks_decoded_on_filtered_misses"] == 0
    # 3. The zero-copy path was actually active (and its twin was not).
    assert report["local"]["mmap"]["mmap_partitions"] == 3
    assert report["local"]["file_io"]["mmap_partitions"] == 0


def test_ngramstore_build_and_query(benchmark, nyt_spec):
    rows = run_once(benchmark, _compare_codecs, nyt_spec)

    print(f"\n=== NGramStore build/query ({nyt_spec.name}) ===")
    print(format_table(rows))

    report_path = os.environ.get("NGRAMSTORE_REPORT", "ngramstore_report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
    print(f"\nwrote n-gram store comparison to {report_path}")

    baseline = next(row for row in rows if row["codec"] == "none")
    for row in rows:
        # Every codec serves exactly the same statistics.
        assert row["num_ngrams"] == baseline["num_ngrams"]
        assert row["prefix_matches"] == baseline["prefix_matches"]
        assert row["top1"] == baseline["top1"]
    compressed = [row for row in rows if row["codec"] != "none"]
    # The compression satellite's acceptance bar: compressed tables are
    # strictly smaller than the uncompressed layout.
    assert all(row["store_bytes"] < baseline["store_bytes"] for row in compressed)
