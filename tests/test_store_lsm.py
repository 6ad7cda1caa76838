"""LSM store generations: incremental ingestion, compaction, live serving.

Three claims under test:

1. **Pre-compaction exactness** — a :class:`GenerationView` over k ingested
   τ=1 delta generations answers every ``StoreAPI`` query (get, multi_get,
   prefix, top-k in both orders, scan) identically to a single store built
   from the summed union of the batches.
2. **Compaction exactness** — ``compact --all`` folds the generations
   through the residual-exact merge, so the surviving generation equals a
   from-scratch union store thresholded at the tree's τ, and its residual
   sidecar preserves the sub-τ counts for every later merge.
3. **Serving identity** — the ingest→compact→serve pipeline conforms across
   all five ``StoreAPI`` implementations (local view, socket, replicas,
   sharded, HTTP): every transport returns the union store's answers.
"""

import json
import os
import random

import pytest

from repro.cli import main
from repro.config import ServerConfig, StoreConfig
from repro.corpus.vocabulary import Vocabulary
from repro.exceptions import StoreError
from repro.ngramstore import (
    BlockCache,
    GenerationView,
    HttpStoreClient,
    LSMStore,
    NGramStore,
    NGramStoreHTTPServer,
    NGramStoreServer,
    ReplicaPool,
    ShardRouter,
    ShardView,
    StoreClient,
    build_store,
    is_lsm_dir,
    open_store_auto,
)

MAX_TERM = 40

IMPLEMENTATIONS = ("local", "socket", "replicas", "sharded", "http")


def make_batch(count, seed, max_term=MAX_TERM, max_len=3):
    """One ingest batch: τ=1 counts of ``count`` distinct random n-grams."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 30)) for key in sorted(keys)]


def summed(*batches):
    totals = {}
    for batch in batches:
        for key, value in batch:
            totals[key] = totals.get(key, 0) + value
    return sorted(totals.items())


def term_for(term_id):
    return f"w{term_id:02d}"


def make_vocabulary(max_term=MAX_TERM):
    return Vocabulary.from_term_frequencies(
        {term_for(index): 1000 - index for index in range(max_term + 1)}
    )


class TestLSMLifecycle:
    def test_init_and_reopen(self, tmp_path):
        root = str(tmp_path / "lsm")
        store = LSMStore.init(root, min_frequency=3, max_length=4)
        assert is_lsm_dir(root)
        assert store.min_frequency == 3
        assert store.generations == []
        assert store.num_records == 0
        reopened = LSMStore.open(root)
        assert reopened.min_frequency == 3
        assert reopened.manifest["max_length"] == 4

    def test_init_refuses_existing_lsm_dir(self, tmp_path):
        root = str(tmp_path / "lsm")
        LSMStore.init(root)
        with pytest.raises(StoreError, match="already an LSM store"):
            LSMStore.init(root)

    def test_init_refuses_plain_store_dir(self, tmp_path):
        store_dir = str(tmp_path / "plain")
        build_store([((1,), 2)], store_dir)
        with pytest.raises(StoreError, match="plain store"):
            LSMStore.init(store_dir)

    def test_open_without_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="no LSM manifest"):
            LSMStore.open(str(tmp_path / "nowhere"))

    def test_init_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(StoreError, match="min_frequency"):
            LSMStore.init(str(tmp_path / "lsm"), min_frequency=0)

    def test_generations_are_numbered_monotonically(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"), min_frequency=2)
        first = store.ingest_records(make_batch(50, seed=1))
        second = store.ingest_records(make_batch(50, seed=2))
        assert [first["name"], second["name"]] == ["gen-00000", "gen-00001"]
        store.compact(all_generations=True)
        third = store.ingest_records(make_batch(50, seed=3))
        # Compaction consumed gen-00002; new deltas never reuse a name.
        assert third["name"] == "gen-00003"

    def test_vocabulary_mismatch_rejected(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"))
        store.ingest_records(make_batch(30, seed=4), vocabulary=make_vocabulary())
        other = Vocabulary.from_term_frequencies({"different": 1})
        with pytest.raises(StoreError, match="vocabulary disagrees"):
            store.ingest_records(make_batch(30, seed=5), vocabulary=other)


class TestGenerationViewExactness:
    def test_view_equals_union_store_before_compaction(self, tmp_path):
        batches = [make_batch(150, seed=10 + index) for index in range(3)]
        store = LSMStore.init(
            str(tmp_path / "lsm"),
            min_frequency=2,
            store=StoreConfig(num_partitions=2, records_per_block=32),
        )
        for batch in batches:
            store.ingest_records(batch)
        union = summed(*batches)
        union_dir = str(tmp_path / "union")
        build_store(
            union, union_dir, store=StoreConfig(num_partitions=3, records_per_block=32)
        )
        with store.view() as view, NGramStore.open(union_dir) as scratch:
            assert list(view.scan()) == list(scratch.items())
            assert view.num_records == sum(len(batch) for batch in batches)
            assert view.top_k(12) == scratch.top_k(12)
            assert view.top_k(12, order="key") == scratch.top_k(12, order="key")
            keys = [key for key, _ in union[::17]] + [(MAX_TERM + 99,)]
            assert view.multi_get(keys) == scratch.multi_get(keys)
            assert view.get((MAX_TERM + 99,), default=-1) == -1
            prefix = union[0][0][:1]
            assert list(view.prefix(prefix)) == list(scratch.prefix(prefix))
            assert list(view.prefix(prefix, limit=2)) == list(
                scratch.prefix(prefix, limit=2)
            )

    def test_view_stats_shape(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"), min_frequency=2)
        store.ingest_records(make_batch(60, seed=20), vocabulary=make_vocabulary())
        with store.view() as view:
            stats = view.stats()
            assert stats["num_records"] == view.num_records
            assert stats["has_vocabulary"] is True
            assert stats["metadata"]["min_frequency"] == 2
            assert stats["metadata"]["lsm"]["num_generations"] == 1
            io = view.io_stats()
            assert io["blocks_checksum_failed"] == 0

    def test_single_generation_top_k_uses_block_skipping(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"))
        batch = make_batch(300, seed=21)
        store.ingest_records(batch)
        with store.view() as view:
            expected = sorted(batch, key=lambda record: (-record[1], record[0]))[:5]
            assert [tuple(record) for record in view.top_k(5)] == expected

    def test_closed_view_refuses_queries(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"))
        store.ingest_records(make_batch(20, seed=22))
        view = store.view()
        view.close()
        with pytest.raises(StoreError, match="closed"):
            view.get((1,))


class TestCompaction:
    def test_compact_all_equals_thresholded_union(self, tmp_path):
        batches = [make_batch(120, seed=30 + index) for index in range(4)]
        store = LSMStore.init(
            str(tmp_path / "lsm"),
            min_frequency=3,
            store=StoreConfig(num_partitions=2, records_per_block=32),
        )
        for batch in batches:
            store.ingest_records(batch)
        stats = store.compact(all_generations=True)
        assert stats["generations_after"] == 1
        assert stats["records_in"] == sum(len(batch) for batch in batches)

        union = summed(*batches)
        with store.view() as view:
            # Served counts: exactly the τ-thresholded union.
            assert list(view.scan()) == [
                (key, value) for key, value in union if value >= 3
            ]
        # The compacted generation keeps the sub-τ counts in its residual,
        # so the *full* union survives for every later merge.
        (generation,) = store.generations
        with NGramStore.open(store.generation_dir(generation["name"])) as merged:
            assert merged.has_residual
            assert list(merged.exact_items()) == union
        # Victim directories are gone.
        assert sorted(
            name for name in os.listdir(store.root) if name.startswith("gen-")
        ) == [generation["name"]]

    def test_compact_chain_stays_exact(self, tmp_path):
        """Compacting compacted generations re-promotes across the residuals."""
        batches = [make_batch(80, seed=40 + index) for index in range(4)]
        store = LSMStore.init(str(tmp_path / "lsm"), min_frequency=4)
        store.ingest_records(batches[0])
        store.ingest_records(batches[1])
        store.compact(all_generations=True)
        store.ingest_records(batches[2])
        store.ingest_records(batches[3])
        store.compact(all_generations=True)
        union = summed(*batches)
        with store.view() as view:
            assert list(view.scan()) == [
                (key, value) for key, value in union if value >= 4
            ]

    def test_size_tiered_plan_targets_similar_sizes(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"), min_frequency=2)
        for index, count in enumerate((50, 60, 55)):
            store.ingest_records(make_batch(count, seed=50 + index))
        big = store.ingest_records(make_batch(2000, seed=59))
        victims = store.plan_compaction()
        # The three similar-sized deltas tier together; the big run is left out.
        assert len(victims) == 3
        assert big["name"] not in victims
        stats = store.compact()
        assert sorted(stats["merged"]) == sorted(victims)
        assert len(store.generations) == 2

    def test_plan_validation(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"))
        with pytest.raises(StoreError, match="tier_ratio"):
            store.plan_compaction(tier_ratio=0)
        with pytest.raises(StoreError, match="min_tier"):
            store.plan_compaction(min_tier=1)

    def test_nothing_to_compact(self, tmp_path):
        store = LSMStore.init(str(tmp_path / "lsm"), min_frequency=2)
        assert store.compact() is None
        assert store.compact(all_generations=True) is None
        store.ingest_records(make_batch(40, seed=60))
        assert store.compact() is None  # single generation, below min_tier
        # --all on one un-thresholded generation still applies τ ...
        assert store.compact(all_generations=True) is not None
        # ... after which there is truly nothing left to do.
        assert store.compact(all_generations=True) is None


class TestOpenStoreAuto:
    def test_dispatch(self, tmp_path):
        plain_dir = str(tmp_path / "plain")
        build_store([((1,), 2)], plain_dir)
        lsm = LSMStore.init(str(tmp_path / "lsm"))
        lsm.ingest_records([((1,), 2)])
        with open_store_auto(plain_dir) as plain:
            assert isinstance(plain, NGramStore)
            assert plain.get((1,)) == 2
        with open_store_auto(lsm.root) as view:
            assert isinstance(view, GenerationView)
            assert view.get((1,)) == 2

    def test_shared_cache_passes_through(self, tmp_path):
        lsm = LSMStore.init(str(tmp_path / "lsm"))
        lsm.ingest_records(make_batch(30, seed=70))
        cache = BlockCache(8)
        with open_store_auto(lsm.root, cache=cache) as view:
            assert view.cache is cache
            view.get(make_batch(30, seed=70)[0][0])
            assert cache.stats_snapshot().misses > 0


# --------------------------------------------------- serve-tier conformance
@pytest.fixture(scope="module")
def lsm_pipeline(tmp_path_factory):
    """Ingest three batches, compact everything, keep the union reference."""
    root_dir = tmp_path_factory.mktemp("lsm-serve")
    batches = [make_batch(200, seed=80 + index) for index in range(3)]
    vocabulary = make_vocabulary()
    store = LSMStore.init(
        str(root_dir / "lsm"),
        min_frequency=2,
        store=StoreConfig(num_partitions=3, records_per_block=32),
    )
    for index, batch in enumerate(batches):
        store.ingest_records(batch, vocabulary=vocabulary, source=f"batch-{index}")
    store.compact(all_generations=True)

    union_dir = str(root_dir / "union")
    build_store(
        summed(*batches),
        union_dir,
        store=StoreConfig(
            num_partitions=3, records_per_block=32, min_frequency=2
        ),
        vocabulary=vocabulary,
    )
    return {"store": store, "union_dir": union_dir}


@pytest.fixture(scope="module")
def reference(lsm_pipeline):
    """Ground truth from the from-scratch union store."""
    with NGramStore.open(lsm_pipeline["union_dir"]) as scratch:
        expected = dict(scratch.items())
        first_terms = sorted({key[0] for key in expected})[:3]
        top_records = scratch.top_k(6)
        top_rendered = scratch.render_ngrams([key for key, _ in top_records])
        return {
            "expected": expected,
            "top_frequency": scratch.top_k(10),
            "top_key": scratch.top_k(10, order="key"),
            "prefixes": {term: list(scratch.prefix((term,))) for term in first_terms},
            "top_terms": [
                (terms, value) for terms, (_, value) in zip(top_rendered, top_records)
            ],
        }


@pytest.fixture(scope="module")
def topology(lsm_pipeline):
    """Servers over the ingested-and-compacted LSM directory."""
    store = lsm_pipeline["store"]
    servers = []

    def start(server):
        server.start()
        servers.append(server)
        return server

    socket_a = start(NGramStoreServer(store.root, config=ServerConfig(port=0)))
    socket_b = start(NGramStoreServer(store.root, config=ServerConfig(port=0)))
    # Range sharding needs a single partition list: after compact --all the
    # surviving generation is a plain store, so shard that directory.
    (generation,) = store.generations
    generation_dir = store.generation_dir(generation["name"])
    shards = [
        start(
            NGramStoreServer(
                ShardView(
                    NGramStore.open(generation_dir, cache=BlockCache(16)), index, 3
                ),
                config=ServerConfig(port=0),
            )
        )
        for index in range(3)
    ]
    http = start(
        NGramStoreHTTPServer(store.root, config=ServerConfig(port=0))
    )
    yield {
        "socket": (socket_a.host, socket_a.port),
        "replica": (socket_b.host, socket_b.port),
        "shards": [(server.host, server.port) for server in shards],
        "http_url": f"http://{http.host}:{http.port}",
    }
    for server in servers:
        server.close()


@pytest.fixture(params=IMPLEMENTATIONS)
def api(request, lsm_pipeline, topology):
    name = request.param
    if name == "local":
        instance = open_store_auto(lsm_pipeline["store"].root)
    elif name == "socket":
        instance = StoreClient(*topology["socket"])
    elif name == "replicas":
        instance = ReplicaPool(
            [StoreClient(*topology["socket"]), StoreClient(*topology["replica"])]
        )
    elif name == "sharded":
        instance = ShardRouter(
            [StoreClient(host, port) for host, port in topology["shards"]]
        )
    else:
        instance = HttpStoreClient(topology["http_url"])
    with instance:
        yield instance


class TestServeConformance:
    """Every transport serves the ingested store with union-store answers."""

    def test_get(self, api, reference):
        expected = reference["expected"]
        for key in sorted(expected)[::29]:
            assert api.get(key) == expected[key]
        assert api.get((MAX_TERM + 1000,)) is None

    def test_multi_get(self, api, reference):
        expected = reference["expected"]
        keys = sorted(expected)[::37] + [(MAX_TERM + 1000,)]
        assert api.multi_get(keys) == [expected.get(key) for key in keys]

    def test_prefix(self, api, reference):
        for term, records in reference["prefixes"].items():
            assert [tuple(record) for record in api.prefix((term,))] == [
                tuple(record) for record in records
            ]

    def test_top_k(self, api, reference):
        assert [tuple(record) for record in api.top_k(10)] == [
            tuple(record) for record in reference["top_frequency"]
        ]
        assert [tuple(record) for record in api.top_k(10, order="key")] == [
            tuple(record) for record in reference["top_key"]
        ]

    def test_term_operations(self, api, reference):
        records = api.top_k(6)
        rendered = api.render_ngrams([key for key, _ in records])
        assert [
            (terms, value) for terms, (_, value) in zip(rendered, records)
        ] == reference["top_terms"]

    def test_stats_num_records(self, api, reference):
        assert api.stats()["num_records"] == len(reference["expected"])


# ----------------------------------------------------------------- CLI layer
class TestLSMCLI:
    def corpus(self, tmp_path, name, documents, seed):
        corpus_dir = str(tmp_path / name)
        assert (
            main(
                [
                    "generate",
                    "--documents",
                    str(documents),
                    "--seed",
                    str(seed),
                    "--output",
                    corpus_dir,
                    "--shards",
                    "2",
                ]
            )
            == 0
        )
        return corpus_dir

    def test_ingest_compact_query_roundtrip(self, tmp_path, capsys):
        corpus_dir = self.corpus(tmp_path, "corpus", documents=30, seed=9)
        root = str(tmp_path / "lsm")
        assert (
            main(
                [
                    "ingest",
                    root,
                    "--input",
                    corpus_dir,
                    "--init",
                    "--tau",
                    "2",
                    "--sigma",
                    "3",
                ]
            )
            == 0
        )
        assert main(["ingest", root, "--input", corpus_dir]) == 0
        assert "2 live generations" in capsys.readouterr().out
        stats_path = str(tmp_path / "compaction.json")
        assert main(["compact", root, "--all", "--stats-json", stats_path]) == 0
        capsys.readouterr()
        with open(stats_path, "r", encoding="utf-8") as handle:
            stats = json.load(handle)
        assert stats["generations_after"] == 1
        assert stats["min_frequency"] == 2
        assert main(["query", root, "--stats"]) == 0
        assert main(["query", root, "--top-k", "3"]) == 0
        # Double ingest of the same corpus doubles every count.
        top = capsys.readouterr().out.splitlines()[-1]
        assert int(top.split()[0]) % 2 == 0

    def test_ingest_without_init_needs_manifest(self, tmp_path, capsys):
        corpus_dir = self.corpus(tmp_path, "corpus", documents=6, seed=10)
        assert main(["ingest", str(tmp_path / "missing"), "--input", corpus_dir]) == 2
        assert "no LSM manifest" in capsys.readouterr().err

    def test_compact_nothing_to_do(self, tmp_path, capsys):
        root = str(tmp_path / "lsm")
        LSMStore.init(root)
        assert main(["compact", root]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_sharded_serve_refuses_lsm_dir(self, tmp_path, capsys):
        root = str(tmp_path / "lsm")
        LSMStore.init(root)
        assert (
            main(
                ["serve", root, "--num-shards", "2", "--shard-index", "0", "--port", "0"]
            )
            == 2
        )
        assert "LSM store directory" in capsys.readouterr().err

    def test_count_store_tau_requires_raw_counts(self, tmp_path, capsys):
        corpus_dir = self.corpus(tmp_path, "corpus", documents=6, seed=11)
        assert (
            main(
                [
                    "count",
                    "--input",
                    corpus_dir,
                    "--tau",
                    "2",
                    "--store-dir",
                    str(tmp_path / "store"),
                    "--store-tau",
                    "2",
                ]
            )
            == 2
        )
        assert "--store-tau > 1 requires --tau 1" in capsys.readouterr().err
