"""Tests for the distributed serving topologies (router module).

The conformance suite (test_store_api.py) proves end-to-end identity over
live servers; these tests pin down the topology mechanics in isolation:
shard range arithmetic (including empty shards and boundary keys),
replica rotation and failover semantics, and the router's refusal to
operate over a broken topology.
"""

import random

import pytest

from repro.config import StoreConfig
from repro.exceptions import StoreConnectionError, StoreError
from repro.ngramstore import NGramStore, ReplicaPool, ShardRouter, ShardView, build_store
from repro.ngramstore.router import shard_partition_range


def make_records(count=400, seed=29, max_term=30, max_len=3):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, max_term) for _ in range(rng.randint(1, max_len))))
    return [(key, rng.randint(1, 300)) for key in sorted(keys)]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("router-store") / "store")
    build_store(
        make_records(),
        directory,
        store=StoreConfig(num_partitions=5, records_per_block=16),
    )
    return directory


@pytest.fixture()
def store(store_dir):
    with NGramStore.open(store_dir) as opened:
        yield opened


class TestShardPartitionRange:
    def test_covers_all_partitions_disjointly(self):
        for num_partitions in (0, 1, 3, 5, 8):
            for num_shards in (1, 2, 3, 7):
                covered = []
                for index in range(num_shards):
                    first, last = shard_partition_range(num_partitions, index, num_shards)
                    covered.extend(range(first, last))
                assert covered == list(range(num_partitions))

    def test_invalid_arguments(self):
        with pytest.raises(StoreError, match="num_shards"):
            shard_partition_range(4, 0, 0)
        with pytest.raises(StoreError, match="shard_index"):
            shard_partition_range(4, 3, 3)
        with pytest.raises(StoreError, match="shard_index"):
            shard_partition_range(4, -1, 3)


class TestShardView:
    def test_shards_partition_the_store(self, store_dir, store):
        """Every record is owned by exactly one of N shard views."""
        all_records = list(store.items())
        for num_shards in (1, 2, 3, 5):
            views = [
                ShardView(NGramStore.open(store_dir), index, num_shards)
                for index in range(num_shards)
            ]
            try:
                combined = []
                for view in views:
                    combined.extend(view.scan())
                assert combined == all_records  # disjoint and in global order
                assert sum(view.num_records for view in views) == store.num_records
            finally:
                for view in views:
                    view.close()

    def test_out_of_range_get_misses_without_io(self, store_dir, store):
        keys = [key for key, _ in store.items()]
        views = [ShardView(NGramStore.open(store_dir), i, 2) for i in range(2)]
        try:
            lower_half, upper_half = views
            boundary = upper_half.lower
            for key in keys[::17]:
                in_upper = key >= boundary
                assert (upper_half.get(key) is not None) == in_upper
                assert (lower_half.get(key) is not None) == (not in_upper)
            assert lower_half.get((10_000,), default=-1) == -1
        finally:
            for view in views:
                view.close()

    def test_more_shards_than_partitions_gives_empty_shards(self, store_dir, store):
        num_shards = store.num_partitions + 3
        views = [
            ShardView(NGramStore.open(store_dir), index, num_shards)
            for index in range(num_shards)
        ]
        try:
            assert sum(1 for view in views if view.is_empty) == 3
            for view in views:
                if view.is_empty:
                    assert list(view.scan()) == []
                    assert view.get((0,)) is None
                    assert view.num_records == 0
            combined = []
            for view in views:
                combined.extend(view.scan())
            assert combined == list(store.items())
        finally:
            for view in views:
                view.close()

    def test_shard_top_k_is_top_k_of_owned_records(self, store_dir):
        view = ShardView(NGramStore.open(store_dir), 1, 3)
        try:
            owned = list(view.scan())
            reference = sorted(owned, key=lambda record: (-record[1], record[0]))[:7]
            assert view.top_k(7) == reference
            assert view.top_k(7, order="key") == owned[:7]
        finally:
            view.close()

    def test_stats_descriptor(self, store_dir, store):
        view = ShardView(NGramStore.open(store_dir), 0, 2)
        try:
            descriptor = view.stats()["shard"]
            assert descriptor["index"] == 0
            assert descriptor["num_shards"] == 2
            assert descriptor["lower"] is None  # first shard: unbounded below
            assert tuple(descriptor["upper"]) in store.boundaries
            assert descriptor["empty"] is False
        finally:
            view.close()


class _ScriptedReplica:
    """A fake StoreAPI member: answers with a tag, or dies on command."""

    def __init__(self, tag, dead=False):
        self.tag = tag
        self.dead = dead
        self.calls = 0
        self.closed = False

    def get(self, ngram, default=None):
        self.calls += 1
        if self.dead:
            raise StoreConnectionError(f"{self.tag} is down")
        return self.tag

    def top_k(self, k, order="frequency"):
        self.calls += 1
        if self.dead:
            raise StoreConnectionError(f"{self.tag} is down")
        return [((0,), self.tag)]

    def close(self):
        self.closed = True


class TestReplicaPool:
    def test_round_robin_rotation(self):
        replicas = [_ScriptedReplica(tag) for tag in ("a", "b", "c")]
        pool = ReplicaPool(replicas)
        assert [pool.get((1,)) for _ in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_failover_skips_dead_replica(self):
        replicas = [_ScriptedReplica("a", dead=True), _ScriptedReplica("b")]
        pool = ReplicaPool(replicas)
        # Every request lands on the live replica, whichever starts the cycle.
        assert [pool.get((1,)) for _ in range(4)] == ["b", "b", "b", "b"]
        assert replicas[0].calls > 0  # the dead one was tried, not shunned forever

    def test_all_dead_raises_connection_error(self):
        pool = ReplicaPool([_ScriptedReplica(tag, dead=True) for tag in ("a", "b")])
        with pytest.raises(StoreConnectionError, match="all 2 replicas failed"):
            pool.top_k(3)

    def test_application_errors_propagate_without_failover(self):
        class Grumpy(_ScriptedReplica):
            def top_k(self, k, order="frequency"):
                self.calls += 1
                raise StoreError("k too large")

        replicas = [Grumpy("a"), Grumpy("b")]
        pool = ReplicaPool(replicas)
        with pytest.raises(StoreError, match="k too large"):
            pool.top_k(10**9)
        # Only one replica was asked: every replica would answer identically.
        assert sum(replica.calls for replica in replicas) == 1

    def test_close_closes_all_members(self):
        replicas = [_ScriptedReplica(tag) for tag in ("a", "b")]
        ReplicaPool(replicas).close()
        assert all(replica.closed for replica in replicas)

    def test_empty_pool_rejected(self):
        with pytest.raises(StoreError, match="at least one"):
            ReplicaPool([])

    def test_negative_quarantine_rejected(self):
        with pytest.raises(StoreError, match="quarantine"):
            ReplicaPool([_ScriptedReplica("a")], quarantine_base=-1)


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestReplicaQuarantine:
    """Failed replicas sit out with exponential backoff, then re-earn trust."""

    def make_pool(self, replicas, clock):
        return ReplicaPool(replicas, quarantine_base=0.25, quarantine_cap=30.0, clock=clock)

    def test_failed_replica_not_retried_until_backoff_expires(self):
        clock = _FakeClock()
        dead = _ScriptedReplica("a", dead=True)
        live = _ScriptedReplica("b")
        pool = self.make_pool([dead, live], clock)
        assert pool.get((1,)) == "b"  # first cycle tries and benches "a"
        assert pool.benched_replicas() == [0]
        tried = dead.calls
        for _ in range(10):
            assert pool.get((1,)) == "b"
        assert dead.calls == tried  # benched: not even probed
        clock.now += 0.26  # past the base delay
        # One full rotation pair: whichever call starts at "a" probes it.
        assert {pool.get((1,)), pool.get((1,))} == {"b"}
        assert dead.calls == tried + 1  # probed again exactly once

    def test_backoff_doubles_per_consecutive_failure(self):
        clock = _FakeClock()
        dead = _ScriptedReplica("a", dead=True)
        pool = self.make_pool([dead, _ScriptedReplica("b")], clock)
        pool.get((1,))  # failure #1 -> benched 0.25s
        for expected_delay in (0.25, 0.5, 1.0, 2.0):
            tried = dead.calls
            clock.now += expected_delay - 0.01  # just short of the bench
            pool.get((1,))
            assert dead.calls == tried
            clock.now += 0.02  # cross it: the probe fails again, doubling
            pool.get((1,))
            assert dead.calls == tried + 1

    def test_backoff_is_capped(self):
        clock = _FakeClock()
        dead = _ScriptedReplica("a", dead=True)
        pool = ReplicaPool(
            [dead, _ScriptedReplica("b")], quarantine_base=0.25, quarantine_cap=1.0, clock=clock
        )
        for _ in range(12):  # uncapped this would bench for ~8 minutes
            pool.get((1,))
            clock.now += 1.01
        tried = dead.calls
        clock.now += 1.01
        pool.get((1,))
        assert dead.calls == tried + 1  # still probed every ~cap seconds

    def test_success_resets_the_backoff(self):
        clock = _FakeClock()
        flaky = _ScriptedReplica("a", dead=True)
        pool = self.make_pool([flaky, _ScriptedReplica("b")], clock)
        for _ in range(4):  # every probe of "a" fails, escalating its bench
            pool.get((1,))
            clock.now += 40
        assert flaky.calls >= 2
        flaky.dead = False
        # One full rotation pair lands one call on the recovered replica.
        assert "a" in {pool.get((1,)), pool.get((1,))}
        assert pool.benched_replicas() == []
        flaky.dead = True
        pool.get((1,))
        pool.get((1,))  # the pair contains exactly one fresh failure
        tried = flaky.calls
        clock.now += 0.26  # base delay again, not the escalated one
        pool.get((1,))
        pool.get((1,))
        assert flaky.calls == tried + 1

    def test_all_benched_still_tries_everyone(self):
        """Total outage: quarantine must not make the pool unservable."""
        clock = _FakeClock()
        replicas = [_ScriptedReplica(tag, dead=True) for tag in ("a", "b")]
        pool = self.make_pool(replicas, clock)
        with pytest.raises(StoreConnectionError, match="all 2 replicas failed"):
            pool.get((1,))
        assert pool.benched_replicas() == [0, 1]
        # No clock advance: every replica is benched, yet all are retried.
        calls = [replica.calls for replica in replicas]
        with pytest.raises(StoreConnectionError):
            pool.get((1,))
        assert [replica.calls for replica in replicas] == [count + 1 for count in calls]
        # One recovers: the pool notices on the next full-rotation attempt.
        replicas[1].dead = False
        assert pool.get((1,)) == "b"


class TestShardRouterLocal:
    """Router over in-process ShardViews (no sockets): pure routing logic."""

    def make_router(self, store_dir, num_shards):
        return ShardRouter(
            [
                ShardView(NGramStore.open(store_dir), index, num_shards)
                for index in range(num_shards)
            ]
        )

    def test_routes_and_merges_like_the_local_store(self, store_dir, store):
        expected = dict(store.items())
        router = self.make_router(store_dir, 3)
        try:
            for key in sorted(expected)[::13]:
                assert router.get(key) == expected[key]
            assert router.get((10_000,)) is None
            keys = sorted(expected)[::29] + [(10_000,)]
            assert router.multi_get(keys) == [expected.get(key) for key in keys]
            term = sorted(expected)[0][0]
            assert list(router.prefix((term,))) == list(store.prefix((term,)))
            assert router.top_k(9) == store.top_k(9)
            assert router.top_k(9, order="key") == store.top_k(9, order="key")
            assert router.stats()["num_records"] == store.num_records
        finally:
            router.close()

    @pytest.mark.parametrize("limit", [True, False, -1, 2.0])
    def test_bad_prefix_limit_rejected(self, store_dir, store, limit):
        """Every prefix entry point shares one limit check; a bool is not a count."""
        router = self.make_router(store_dir, 3)
        try:
            for target in (store, router.shards[0].client, router):
                with pytest.raises(StoreError, match="limit"):
                    target.prefix((0,), limit=limit)
        finally:
            router.close()

    def test_tolerates_empty_shards(self, store_dir, store):
        num_shards = store.num_partitions + 2
        router = self.make_router(store_dir, num_shards)
        try:
            assert router.top_k(5) == store.top_k(5)
            some_key = next(iter(store))
            assert router.get(some_key) == store.get(some_key)
        finally:
            router.close()

    def test_rejects_incomplete_topology(self, store_dir):
        views = [ShardView(NGramStore.open(store_dir), index, 3) for index in (0, 2)]
        try:
            with pytest.raises(StoreError, match="missing indexes \\[1\\]"):
                ShardRouter(views)
        finally:
            for view in views:
                view.close()

    def test_rejects_mixed_shard_counts(self, store_dir):
        views = [
            ShardView(NGramStore.open(store_dir), 0, 2),
            ShardView(NGramStore.open(store_dir), 1, 3),
        ]
        try:
            with pytest.raises(StoreError, match="disagree on num_shards"):
                ShardRouter(views)
        finally:
            for view in views:
                view.close()

    def test_rejects_unsharded_members(self, store_dir):
        with NGramStore.open(store_dir) as plain:
            with pytest.raises(StoreError, match="shard descriptor"):
                ShardRouter([plain])

    def test_parallel_fan_out_identical_to_local(self, store_dir, store):
        """The thread-pool fan-out changes wall-clock, never answers."""
        expected = dict(store.items())
        router = self.make_router(store_dir, 3)
        try:
            terms = sorted({key[0] for key in expected})
            for term in terms[::5]:
                reference = list(store.prefix((term,)))
                assert list(router.prefix((term,))) == reference
                assert list(router.prefix((term,), limit=3)) == reference[:3]
            for k in (1, 9, 50):
                assert router.top_k(k) == store.top_k(k)
                assert router.top_k(k, order="key") == store.top_k(k, order="key")
            # The queries above genuinely crossed shards in parallel.
            assert router._executor is not None
        finally:
            router.close()
            router.close()  # idempotent, including the executor shutdown

    def test_fan_out_from_many_caller_threads(self, store_dir, store):
        """Caller concurrency on top of shard fan-out stays correct."""
        from concurrent.futures import ThreadPoolExecutor

        expected = dict(store.items())
        terms = sorted({key[0] for key in expected})
        reference = {term: list(store.prefix((term,))) for term in terms}
        reference_top = store.top_k(7)
        router = self.make_router(store_dir, 3)

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(15):
                term = rng.choice(terms)
                assert list(router.prefix((term,))) == reference[term]
            assert router.top_k(7) == reference_top
            return True

        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                assert all(pool.map(hammer, range(8)))
        finally:
            router.close()
