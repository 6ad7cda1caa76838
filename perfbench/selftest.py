"""Self-test of the benchmark at a tiny input size (about a minute).

Usage::

    python3 perfbench/selftest.py

For every workload, with tracing off and on, it checks that the run ends
with a correct result line carrying every metric of ``BENCHMARK.json``
with its unit.  It then injects a wrong count and a wrong reply and checks
that each gives a nonzero error ratio, and checks that the benchmark
refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-selftest")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "2", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(completed: subprocess.CompletedProcess) -> Dict[str, Any]:
    if completed.returncode != 0:
        raise AssertionError(f"exit {completed.returncode}: {completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures: List[str] = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = workload["name"]
            result = result_of(bench("--workload", name, "--seed", "7", "--trace", str(trace),
                                     "--tiny"))
            expected = {metric["name"]: metric["unit"] for metric in spec[section]}
            printed = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{name} trace={trace}: metrics {printed} != {expected}")
            elif not result["correct"] or result["failed"]:
                failures.append(f"{name} trace={trace}: not correct: {result}")
            else:
                print(f"ok   {name} trace={trace}: {len(printed)} metrics, "
                      f"{result['attempted']} checked operations")

    for inject in ("count", "response"):
        name = spec["workloads"][0]["name"]
        result = result_of(bench("--workload", name, "--seed", "7", "--trace", "0", "--tiny",
                                 "--inject", inject))
        ratio = result["failed"] / result["attempted"]
        if result["correct"] or ratio <= 0:
            failures.append(f"injected wrong {inject} not caught: {result}")
        else:
            print(f"ok   injected wrong {inject}: error_ratio {ratio:.6g}")

    # Only the benchmark's own files: it must refuse to run, printing no result.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    shutil.copytree(HERE, os.path.join(SCRATCH, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", spec["workloads"][0]["name"], "--seed", "1", cwd=SCRATCH)
    shutil.rmtree(SCRATCH)
    if completed.returncode == 0 or completed.stdout.strip():
        failures.append(f"ran without the program: exit {completed.returncode}")
    else:
        print(f"ok   refuses to run without the program (exit {completed.returncode})")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
