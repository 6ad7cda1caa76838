"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

Usage::

    python perfbench/launch.py --trace-out T.json --chrome-out C.json -- <repro args>

The wrappers time calls into each layer's public functions (see
``install``); the program itself is unchanged.  When ``repro.cli.main``
returns, the per-name aggregates (plus the counting runs' job metrics) go
to ``--trace-out`` and the kept spans to ``--chrome-out`` in Chrome
trace-event format.  ``SIGUSR1`` marks the aggregates so far, so a server
reports only the requests after its warm-up.  Forked worker processes run
with tracing off: their work is reported from the public ``JobMetrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Any, Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer, TimedIterator  # noqa: E402


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module's reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class _JsonProxy:
    """Stands in for the ``json`` module inside one server module."""

    def __init__(self, tracer: Tracer, request_span: str = "") -> None:
        self._tracer = tracer
        self._request_span = request_span

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)

    def loads(self, *args: Any, **kwargs: Any) -> Any:
        tracer = self._tracer
        if self._request_span and tracer.top() is None:
            # The socket server's request starts when its line is decoded.
            tracer.begin(self._request_span)
        tracer.begin("wire.json")
        try:
            return json.loads(*args, **kwargs)
        finally:
            tracer.end("wire.json")

    def dumps(self, *args: Any, **kwargs: Any) -> Any:
        tracer = self._tracer
        tracer.begin("wire.json")
        try:
            return json.dumps(*args, **kwargs)
        finally:
            tracer.end("wire.json")
            if self._request_span:
                # ... and ends once its response is encoded.
                tracer.end(self._request_span)


def install(tracer: Tracer, captured: Dict[str, Any]) -> None:
    import repro.cli  # noqa: F401 - imports most of the program
    from repro.algorithms import apriori_scan, base, suffix_sigma
    from repro.corpus import collection, io as corpus_io
    from repro.mapreduce import job, parallel, runner, serialization, shuffle
    from repro.ngramstore import api, build, format as store_format, http, reader, server, table
    from repro.util import bloom

    def patch(module: Any, attribute: str, wrapper: Callable) -> None:
        original = getattr(module, attribute)
        _replace_everywhere(original, wrapper(original))

    # corpus
    for cls in (corpus_io.ShardedEncodedCollection, collection.EncodedCollection):
        cls.records = tracer.wrap_iter("corpus.read", cls.__dict__["records"])

    # algorithms
    for cls in (suffix_sigma.SuffixMapper, apriori_scan.AprioriScanMapper):
        cls.map = tracer.wrap_call("algorithms.map", cls.__dict__["map"])
    for cls in _subclasses(job.Reducer):
        if (
            cls.__module__.startswith("repro.algorithms")
            and "reduce" in cls.__dict__
            and not issubclass(cls, job.Combiner)
        ):
            cls.reduce = tracer.wrap_call("algorithms.reduce", cls.__dict__["reduce"])

    count_run = tracer.wrap_call("algorithms.count", base.NGramCounter.run)

    def traced_count_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = count_run(self, *args, **kwargs)
        workers = 1
        if self.execution is not None and self.execution.runner != "local":
            workers = self.execution.max_workers or os.cpu_count() or 1
        captured.setdefault("jobs", []).extend(
            {
                "name": metrics.job_name,
                "workers": workers,
                "elapsed_s": metrics.elapsed_seconds,
                "task_s": [t.elapsed_seconds for t in metrics.map_tasks + metrics.reduce_tasks],
            }
            for metrics in result.pipeline.job_metrics
        )
        return result

    base.NGramCounter.run = traced_count_run

    # mapreduce
    patch(serialization, "record_size", lambda f: tracer.wrap_call("mapreduce.record_size", f))
    patch(shuffle, "sort_partition", lambda f: tracer.wrap_call("mapreduce.sort", f))
    patch(shuffle, "group_sorted_records", lambda f: tracer.wrap_iter("mapreduce.group", f))
    for cls in _subclasses(job.SortComparator):
        if "compare" in cls.__dict__:
            cls.compare = tracer.wrap_counter("mapreduce.compare", cls.__dict__["compare"])
    shuffle.CombineBuffer.flush = tracer.wrap_call(
        "mapreduce.combine", shuffle.CombineBuffer.__dict__["flush"]
    )

    def timed_merge(merge: Callable) -> Callable:
        def traced(runs: Any, comparator: Any) -> Any:
            merged = merge(runs, comparator)
            # A single run is passed through unmerged; only real merges are spans.
            if len(runs) > 1 and tracer.enabled:
                return TimedIterator(tracer, "mapreduce.spill_merge", merged)
            return merged

        return traced

    patch(shuffle, "merge_sorted_runs", timed_merge)
    shuffle.PartitionInput.sorted_records = tracer.wrap_call(
        "mapreduce.spill_merge", shuffle.PartitionInput.__dict__["sorted_records"]
    )
    for cls in (runner.LocalJobRunner, parallel.PooledJobRunner):
        cls.run = tracer.wrap_call("mapreduce.job", cls.__dict__["run"])

    # ngramstore, write side
    patch(build, "build_store", lambda f: tracer.wrap_call("ngramstore.build", f))
    patch(store_format, "encode_block", lambda f: tracer.wrap_call("ngramstore.encode_block", f))

    # ngramstore, read side
    for attribute in ("decode_block", "decode_block_view"):
        patch(store_format, attribute, lambda f: tracer.wrap_call("ngramstore.decode_block", f))
    store_get = tracer.wrap_call("ngramstore.get", reader.NGramStore.__dict__["get"])

    def traced_get(self: Any, ngram: Any, default: Any = None) -> Any:
        value = store_get(self, ngram, default)
        if value is default:
            tracer.count("ngramstore.get_absent")
        return value

    reader.NGramStore.get = traced_get
    reader.NGramStore.prefix = tracer.wrap_iter(
        "ngramstore.prefix", reader.NGramStore.__dict__["prefix"], calls="ngramstore.prefix_calls"
    )
    cache_get = table.BlockCache.__dict__["get"]

    def counted_cache_get(self: Any, block_key: Any) -> Any:
        block = cache_get(self, block_key)
        tracer.count("ngramstore.cache_lookups")
        if block is not None:
            tracer.count("ngramstore.cache_hits")
        return block

    table.BlockCache.get = counted_cache_get
    might_contain = bloom.BloomFilter.__dict__["might_contain"]

    def counted_might_contain(self: Any, key: Any) -> bool:
        present = might_contain(self, key)
        if not present:
            tracer.count("ngramstore.bloom_rejections")
        return present

    bloom.BloomFilter.might_contain = counted_might_contain

    # api, server, wire, http
    api.QueryEngine.handle = tracer.wrap_call("api.engine", api.QueryEngine.__dict__["handle"])
    server.json = _JsonProxy(tracer, request_span="server.request")
    http.json = _JsonProxy(tracer)
    handler = http._StoreRequestHandler
    for verb in ("do_GET", "do_POST"):
        setattr(handler, verb, tracer.wrap_call("http.request", handler.__dict__[verb]))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--chrome-out", required=True)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args

    tracer = Tracer()
    captured: Dict[str, Any] = {}
    install(tracer, captured)
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.mark())

    from repro.cli import main as repro_main

    try:
        code = repro_main(repro_args)
    finally:
        tracer.enabled = False
        payload = {"pid": os.getpid(), **tracer.aggregates(), **captured}
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with open(args.chrome_out, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": tracer.chrome_events(os.getpid())}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
