"""End-to-end smoke driver for cross-store analytics + completion (CI).

Builds two overlapping seeded stores that share one vocabulary (both at
τ=2, so the residual sidecars are exercised), then drives the shipped
surfaces as real subprocesses and asserts byte-identity everywhere:

1. ``repro diff-stores`` / ``repro intersect-stores`` write store
   directories whose exact tables must equal the brute-force set
   computation over the inputs' ``exact_items()`` — and the in-process
   streaming twins must produce the same records.
2. ``repro rethreshold`` re-splits store A at a higher τ; the output's
   exact table must replay A's exactly.
3. ``repro serve --http --extra-store`` serves store A with B mounted;
   ``GET /complete`` and ``GET /compare`` responses must equal the
   offline :class:`~repro.ngramstore.QueryEngine` answers over the same
   two stores.

The served JSON bodies are also written to ``--expected`` so the CI job
can re-curl a fresh server and compare without recomputing anything.
Exit status is non-zero on any mismatch, so the CI step fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/analytics_smoke.py \
        --workdir work/analytics --report reports/BENCH_analytics.json \
        --expected work/analytics/expected_serving.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
import urllib.request

from repro.config import StoreConfig
from repro.corpus.vocabulary import Vocabulary
from repro.ngramstore import (
    NGramStore,
    QueryEngine,
    build_store,
    diff_records,
    intersect_records,
)

SCHEMA = "ngramstore-analytics/v1"
MAX_TERM = 40
TAU = 2


def term_for(term_id):
    return f"t{term_id:02d}"


def make_vocabulary():
    return Vocabulary.from_term_frequencies(
        {term_for(index): 1000 - index for index in range(MAX_TERM + 1)}
    )


def make_counts(count, seed, max_len=3, max_count=20):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(
            tuple(rng.randint(0, MAX_TERM) for _ in range(rng.randint(1, max_len)))
        )
    return {key: rng.randint(1, max_count) for key in keys}


def overlapping_counts(seed, size_a=400, size_b=300, shared=150):
    counts_a = make_counts(size_a, seed=seed)
    rng = random.Random(seed + 1)
    counts_b = make_counts(size_b - shared, seed=seed + 2)
    for key in sorted(counts_a)[:shared]:
        counts_b[key] = rng.randint(1, 20)
    return counts_a, counts_b


def brute_diff(counts_a, counts_b):
    return sorted(
        (key, value) for key, value in counts_a.items() if key not in counts_b
    )


def brute_intersect(counts_a, counts_b):
    return sorted(
        (key, [counts_a[key], counts_b[key]])
        for key in counts_a.keys() & counts_b.keys()
    )


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(argv)} failed ({completed.returncode}):\n"
            f"{completed.stdout}{completed.stderr}"
        )
    return completed.stdout


def start_http_server(store_dir, extra_store_dir, workdir, timeout=60.0):
    ready_path = os.path.join(workdir, "ready.txt")
    if os.path.exists(ready_path):
        os.remove(ready_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            store_dir,
            "--http",
            "--port",
            "0",
            "--extra-store",
            extra_store_dir,
            "--ready-file",
            ready_path,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.time() + timeout
    while not os.path.exists(ready_path):
        if process.poll() is not None:
            raise SystemExit(
                f"server exited early ({process.returncode}): {process.stderr.read()}"
            )
        if time.time() > deadline:
            process.kill()
            raise SystemExit("server did not become ready in time")
        time.sleep(0.05)
    with open(ready_path, encoding="utf-8") as handle:
        host, port = handle.read().split()
    return process, host, int(port)


def http_get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def check(label, actual, expected):
    if actual != expected:
        raise SystemExit(
            f"MISMATCH in {label}:\n  actual:   {actual!r}\n  expected: {expected!r}"
        )
    print(f"ok: {label}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, help="scratch directory")
    parser.add_argument("--report", required=True, help="BENCH JSON output path")
    parser.add_argument(
        "--expected",
        required=True,
        help="write the served /complete and /compare JSON bodies here "
        "(for the CI curl comparison)",
    )
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    report = {"schema": SCHEMA, "seed": args.seed, "tau": TAU, "checks": 0}

    counts_a, counts_b = overlapping_counts(args.seed)
    vocabulary = make_vocabulary()
    a_dir = os.path.join(args.workdir, "store-a")
    b_dir = os.path.join(args.workdir, "store-b")
    started = time.perf_counter()
    for counts, directory in ((counts_a, a_dir), (counts_b, b_dir)):
        build_store(
            sorted(counts.items()),
            directory,
            store=StoreConfig(
                num_partitions=3, records_per_block=64, codec="gzip", min_frequency=TAU
            ),
            vocabulary=vocabulary,
        )
    report["build_seconds"] = time.perf_counter() - started
    report["store_a_records"] = len(counts_a)
    report["store_b_records"] = len(counts_b)

    # ------------------------------------------------- 1. diff / intersect
    expected_diff = brute_diff(counts_a, counts_b)
    expected_intersect = brute_intersect(counts_a, counts_b)
    diff_dir = os.path.join(args.workdir, "diff")
    intersect_dir = os.path.join(args.workdir, "intersect")
    started = time.perf_counter()
    run_cli("diff-stores", a_dir, b_dir, "--output", diff_dir, "--codec", "gzip")
    run_cli("intersect-stores", a_dir, b_dir, "--output", intersect_dir)
    report["analytics_cli_seconds"] = time.perf_counter() - started
    with NGramStore.open(diff_dir) as store:
        check("diff-stores == brute force", list(store.exact_items()), expected_diff)
    with NGramStore.open(intersect_dir) as store:
        check(
            "intersect-stores == brute force",
            list(store.exact_items()),
            expected_intersect,
        )
    check("diff_records == brute force", list(diff_records(a_dir, b_dir)), expected_diff)
    check(
        "intersect_records == brute force",
        list(intersect_records(a_dir, b_dir)),
        expected_intersect,
    )
    report["diff_records"] = len(expected_diff)
    report["intersect_records"] = len(expected_intersect)
    report["checks"] += 4

    # ----------------------------------------------------- 2. rethreshold
    rethreshold_dir = os.path.join(args.workdir, "rethresholded")
    run_cli("rethreshold", a_dir, "--output", rethreshold_dir, "--tau", str(TAU + 2))
    with NGramStore.open(rethreshold_dir) as store:
        check(
            "rethreshold preserves the exact table",
            list(store.exact_items()),
            sorted(counts_a.items()),
        )
        check(
            "rethreshold re-splits the main table",
            list(store.items()),
            sorted(
                (key, value) for key, value in counts_a.items() if value >= TAU + 2
            ),
        )
    report["checks"] += 2

    # ------------------------------------------- 3. served complete/compare
    with NGramStore.open(a_dir) as store_a, NGramStore.open(b_dir) as store_b:
        engine = QueryEngine(store_a, extra_store=store_b)
        # A deterministic two-token prefix with completions, and one
        # intersect + one diff key for compare.
        prefix_key = next(
            key for key, _ in sorted(store_a.items()) if len(key) == 1
        )
        compare_shared = expected_intersect[0][0]
        compare_only_a = expected_diff[0][0]
        probes = [
            (
                "complete",
                f"/complete?key={','.join(map(str, prefix_key))}&k=5",
                {"op": "complete", "key": list(prefix_key), "k": 5},
            ),
            (
                "compare-shared",
                f"/compare?key={','.join(map(str, compare_shared))}",
                {"op": "compare", "key": list(compare_shared)},
            ),
            (
                "compare-diff",
                f"/compare?key={','.join(map(str, compare_only_a))}",
                {"op": "compare", "key": list(compare_only_a)},
            ),
        ]
        offline = {label: engine.handle(request) for label, _, request in probes}

    process, host, port = start_http_server(a_dir, b_dir, args.workdir)
    try:
        expected_serving = {}
        for label, path, _ in probes:
            served = http_get_json(f"http://{host}:{port}{path}")
            if not served.pop("ok", False):
                raise SystemExit(f"server refused {path}: {served}")
            check(f"served {label} == offline engine", served, offline[label])
            expected_serving[label] = {"path": path, "response": offline[label]}
            report["checks"] += 1
    finally:
        process.terminate()
        process.wait(timeout=30)

    expected_parent = os.path.dirname(args.expected)
    if expected_parent:
        os.makedirs(expected_parent, exist_ok=True)
    with open(args.expected, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA, "probes": expected_serving}, handle, indent=2)

    report_parent = os.path.dirname(args.report)
    if report_parent:
        os.makedirs(report_parent, exist_ok=True)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"analytics smoke passed: {report['checks']} checks")
    print(f"wrote {args.report} and {args.expected}")


if __name__ == "__main__":
    main()
