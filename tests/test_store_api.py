"""StoreAPI conformance suite: every implementation answers identically.

One shared fixture store (with a persisted vocabulary), five
implementations of :class:`repro.ngramstore.api.StoreAPI` — the local
:class:`NGramStore`, the socket :class:`StoreClient`, a two-server
:class:`ReplicaPool`, a three-shard :class:`ShardRouter`, and the
:class:`HttpStoreClient` — and one parametrized set of assertions
comparing each against reference answers computed directly from the local
store.  A topology that drifts from the local semantics (a shard router
mis-merging top-k, a transport mangling a value) fails here by name.

Also home to the ``repro query --server/--url`` end-to-end tests: the CLI
must render byte-identical output whether it opens the store directory or
talks to a remote server.
"""

import random

import pytest

from repro.cli import main
from repro.config import ServerConfig, StoreConfig
from repro.corpus.vocabulary import Vocabulary
from repro.exceptions import StoreError
from repro.ngramstore import (
    BlockCache,
    HttpStoreClient,
    NGramRecord,
    NGramStore,
    NGramStoreHTTPServer,
    NGramStoreServer,
    QueryEngine,
    ReplicaPool,
    ShardRouter,
    ShardView,
    StoreClient,
    build_store,
)

MAX_TERM = 50

IMPLEMENTATIONS = ("local", "socket", "replicas", "sharded", "http")


def make_records(count=600, seed=13, max_term=MAX_TERM, max_len=4):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 400)) for key in sorted(keys)]


def term_for(term_id):
    return f"w{term_id:02d}"


def _test_vocabulary():
    # Descending frequency with lexicographic tie-break assigns w00 -> id 0,
    # w01 -> id 1, ... — a bijection the term-op assertions rely on.
    return Vocabulary.from_term_frequencies(
        {term_for(index): 1000 - index for index in range(MAX_TERM + 1)}
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("api-store") / "store")
    build_store(
        make_records(),
        directory,
        store=StoreConfig(num_partitions=5, records_per_block=32),
        vocabulary=_test_vocabulary(),
        metadata={"origin": "test_store_api"},
    )
    return directory


@pytest.fixture(scope="module")
def extra_store_dir(tmp_path_factory):
    """The comparison store every server mounts: same vocabulary, partially
    overlapping records, so ``compare`` sees all four found/missing shapes."""
    directory = str(tmp_path_factory.mktemp("api-extra") / "store")
    build_store(
        make_records(count=400, seed=29),
        directory,
        store=StoreConfig(num_partitions=3, records_per_block=32),
        vocabulary=_test_vocabulary(),
        metadata={"origin": "test_store_api_extra"},
    )
    return directory


@pytest.fixture(scope="module")
def reference(store_dir, extra_store_dir):
    """Ground truth computed once from the local store."""
    expected = dict(make_records())
    with NGramStore.open(store_dir) as store:
        first_terms = sorted({key[0] for key in expected})[:4]
        complete_prefixes = [(), (first_terms[0],)] + [
            key for key in sorted(expected) if len(key) == 2
        ][:3]
        with NGramStore.open(extra_store_dir) as extra:
            engine = QueryEngine(store, extra_store=extra)
            compare_keys = sorted(
                set(expected) | set(dict(make_records(count=400, seed=29)))
            )[::37] + [(MAX_TERM + 1000,)]
            compares = {
                key: engine.handle({"op": "compare", "key": list(key)})
                for key in compare_keys
            }
        top_records = store.top_k(8)
        top_rendered = store.render_ngrams([key for key, _ in top_records])
        return {
            "expected": expected,
            "top_frequency": store.top_k(12),
            "top_key": store.top_k(12, order="key"),
            "prefixes": {
                term: list(store.prefix((term,))) for term in first_terms
            },
            "stats": store.stats(),
            "top_terms": [
                NGramRecord(terms, value)
                for terms, (_, value) in zip(top_rendered, top_records)
            ],
            "completions": {
                prefix: store.complete(prefix, 6) for prefix in complete_prefixes
            },
            "compares": compares,
        }


@pytest.fixture(scope="module")
def topology(store_dir, extra_store_dir):
    """All the servers the remote implementations talk to, started once."""
    servers = []

    def start(server):
        server.start()
        servers.append(server)
        return server

    socket_a = start(
        NGramStoreServer(
            store_dir,
            config=ServerConfig(port=0, cache_blocks=32, extra_store=extra_store_dir),
        )
    )
    socket_b = start(
        NGramStoreServer(
            store_dir,
            config=ServerConfig(port=0, cache_blocks=32, extra_store=extra_store_dir),
        )
    )
    shards = [
        start(
            NGramStoreServer(
                ShardView(NGramStore.open(store_dir, cache=BlockCache(16)), index, 3),
                config=ServerConfig(port=0, extra_store=extra_store_dir),
            )
        )
        for index in range(3)
    ]
    http = start(
        NGramStoreHTTPServer(
            store_dir,
            config=ServerConfig(port=0, extra_store=extra_store_dir),
        )
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
def api(request, store_dir, topology):
    name = request.param
    if name == "local":
        instance = NGramStore.open(store_dir)
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


class TestConformance:
    """Identical answers from every implementation, by construction."""

    def test_get(self, api, reference):
        expected = reference["expected"]
        for key in sorted(expected)[::23]:
            assert api.get(key) == expected[key]
        assert api.get((MAX_TERM + 1000,)) is None
        assert api.get((MAX_TERM + 1000,), default=-7) == -7

    def test_multi_get(self, api, reference):
        expected = reference["expected"]
        keys = sorted(expected)[::41] + [(MAX_TERM + 1000,)]
        assert api.multi_get(keys) == [expected.get(key) for key in keys]
        assert api.multi_get([(MAX_TERM + 1000,)], default=0) == [0]

    def test_prefix(self, api, reference):
        for term, records in reference["prefixes"].items():
            assert list(api.prefix((term,))) == records
            assert list(api.prefix((term,), limit=3)) == records[:3]
        assert list(api.prefix((MAX_TERM + 1000,))) == []

    def test_top_k_frequency_and_key_order(self, api, reference):
        assert api.top_k(12) == reference["top_frequency"]
        assert api.top_k(12, order="key") == reference["top_key"]

    def test_stats_core_fields(self, api, reference):
        stats = api.stats()
        for field in ("store_dir", "num_records", "codec", "has_vocabulary", "metadata"):
            assert stats[field] == reference["stats"][field]

    def test_ping(self, api):
        assert api.ping() is True

    def test_translate_terms(self, api, reference):
        expected = reference["expected"]
        keys = sorted(expected)[::97]
        items = [tuple(term_for(term_id) for term_id in key) for key in keys]
        translated = api.translate_terms(items)
        assert translated == keys
        # The translated keys drive the id-keyed operations directly.
        assert api.multi_get(translated) == [expected[key] for key in keys]
        # Any unknown term makes the whole n-gram unknown: None, not an error.
        assert api.translate_terms(
            [("no-such-term",), (term_for(0), "no-such-term"), items[0]]
        ) == [None, None, keys[0]]
        assert api.translate_terms([]) == []

    def test_render_ngrams(self, api, reference):
        records = api.top_k(8)
        rendered = api.render_ngrams([key for key, _ in records])
        assert rendered == [
            tuple(term_for(term_id) for term_id in key) for key, _ in records
        ]
        assert [
            NGramRecord(terms, value) for terms, (_, value) in zip(rendered, records)
        ] == reference["top_terms"]
        # An id the dictionary does not know is the same typed error on
        # every implementation, local or remote.
        with pytest.raises(StoreError, match="unknown term identifier"):
            api.render_ngrams([(0, MAX_TERM + 1000)])
        assert api.ping()

    def test_records_are_tuple_compatible(self, api, reference):
        """The canonical record unpacks and compares like a plain tuple."""
        (record,) = api.top_k(1)
        ngram, value = record
        assert record == (ngram, value)
        assert isinstance(record, tuple)

    def test_complete(self, api, reference):
        for prefix, completions in reference["completions"].items():
            assert api.complete(prefix, 6) == completions
        assert api.complete((MAX_TERM + 1000,), 6) == []

    def test_compare(self, api, reference, extra_store_dir):
        """Remote implementations carry ``compare`` natively (the servers
        mount the extra store); the local store is compared through a
        :class:`QueryEngine` over both stores — the reference semantics the
        transports must match byte for byte."""
        with NGramStore.open(extra_store_dir) as extra:
            engine = QueryEngine(api, extra_store=extra)
            compare = getattr(
                api, "compare", lambda key: engine.handle({"op": "compare", "key": list(key)})
            )
            for key, expected in reference["compares"].items():
                assert compare(key) == expected


class TestQueryCLIRemote:
    """`repro query --server/--url` renders exactly like the direct store."""

    def _output(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["--top-k", "6"],
            ["--top-k", "6", "--order", "key"],
            ["--get", "w03 w07"],
            ["--prefix", "w03", "--limit", "5"],
            ["--top-k", "4", "--ids"],
            ["--stats"],
        ],
    )
    def test_remote_matches_direct(self, capsys, store_dir, topology, argv_tail):
        direct_code, direct_out = self._output(capsys, ["query", store_dir] + argv_tail)
        host, port = topology["socket"]
        socket_code, socket_out = self._output(
            capsys, ["query", "--server", f"{host}:{port}"] + argv_tail
        )
        http_code, http_out = self._output(
            capsys, ["query", "--url", topology["http_url"]] + argv_tail
        )
        assert socket_code == direct_code
        assert http_code == direct_code
        assert socket_out == direct_out
        assert http_out == direct_out

    def test_not_found_exit_code_matches(self, capsys, store_dir, topology):
        direct_code, direct_out = self._output(
            capsys, ["query", store_dir, "--get", "no-such-term"]
        )
        host, port = topology["socket"]
        remote_code, remote_out = self._output(
            capsys, ["query", "--server", f"{host}:{port}", "--get", "no-such-term"]
        )
        assert direct_code == remote_code == 1
        assert direct_out == remote_out

    def test_source_validation(self, capsys, store_dir, topology):
        host, port = topology["socket"]
        assert main(["query", store_dir, "--server", f"{host}:{port}", "--top-k", "3"]) == 2
        assert main(["query", "--top-k", "3"]) == 2
        assert main(["query", "--server", "not-a-hostport", "--top-k", "3"]) == 2
        capsys.readouterr()

    def test_dead_server_is_a_clean_error(self, capsys, store_dir):
        assert main(["query", "--server", "127.0.0.1:1", "--get", "w00"]) == 2
        error = capsys.readouterr().err
        assert "error:" in error
