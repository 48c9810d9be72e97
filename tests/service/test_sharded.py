"""ShardedBufferManager: sharding, sessions, quotas, and metrics."""

import pytest

from repro.core import LRUKPolicy
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.policies import LRUPolicy
from repro.service import ShardedBufferManager


def manager_of(capacity=16, shards=2, **kwargs) -> ShardedBufferManager:
    return ShardedBufferManager(capacity, shards=shards, **kwargs)


class TestConstruction:
    def test_rejects_non_positive_shards(self):
        with pytest.raises(ConfigurationError):
            ShardedBufferManager(8, shards=0)

    def test_rejects_capacity_below_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedBufferManager(3, shards=4)

    def test_capacity_split_sums_to_total(self):
        manager = manager_of(capacity=10, shards=3)
        sizes = [shard.pool.capacity for shard in manager.shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1  # as even as possible

    def test_each_shard_gets_a_fresh_policy(self):
        built = []

        def factory():
            policy = LRUPolicy()
            built.append(policy)
            return policy

        manager = manager_of(shards=3, policy_factory=factory)
        assert len(built) == 3
        assert len({id(p) for p in built}) == 3
        del manager

    def test_rejects_bad_tenant_quota(self):
        with pytest.raises(ConfigurationError):
            manager_of(quotas={"a": 0})


class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        manager = manager_of(shards=4)
        for page in range(200):
            index = manager.shard_of(page)
            assert 0 <= index < 4
            assert manager.shard_of(page) == index

    def test_dense_page_ids_spread_across_shards(self):
        manager = manager_of(capacity=64, shards=4)
        hit_shards = {manager.shard_of(page) for page in range(64)}
        assert hit_shards == {0, 1, 2, 3}


class TestRequestPath:
    def test_miss_then_hit(self):
        manager = manager_of()
        with manager.session("a") as session:
            assert session.access(7) is False  # cold miss
            assert session.access(7) is True   # now resident
        stats = manager.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_pin_discipline_via_session(self):
        manager = manager_of(capacity=2, shards=1)
        with manager.session("a") as session:
            with session.pinned(1):
                session.access(2)
                # Page 1 is pinned: filling the pool cannot evict it.
                session.access(3)
                assert 1 in manager.resident_pages()
            pool = manager.shards[0].pool
            assert pool.pin_count(1) == 0

    def test_session_stats_match_manager_stats(self):
        manager = manager_of(capacity=8, shards=2)
        with manager.session("a") as session:
            for page in [1, 2, 3, 1, 2, 3, 9]:
                session.access(page)
            assert session.stats.requests == 7
        stats = manager.stats()
        assert stats.hits == session.stats.hits
        assert stats.misses == session.stats.misses

    def test_dirty_unpin_writes_back_on_flush(self):
        manager = manager_of(capacity=4, shards=2)
        with manager.session("a") as session:
            session.fetch(5)
            session.unpin(5, dirty=True)
        assert manager.flush_all() == 1

    def test_session_ids_are_unique(self):
        manager = manager_of()
        first = manager.session("a")
        second = manager.session("b")
        assert first.session_id != second.session_id
        first.close()
        second.close()
        second.close()  # idempotent


class TestQuotaEnforcement:
    def test_over_quota_tenant_evicts_its_own_lru_page(self):
        manager = manager_of(capacity=4, shards=1, quotas={"greedy": 2},
                             policy_factory=LRUPolicy)
        greedy = manager.session("greedy")
        modest = manager.session("modest")
        modest.access(101)
        modest.access(102)
        greedy.access(1)
        greedy.access(2)   # greedy now at quota, shard now full
        greedy.access(3)   # must displace greedy's own LRU page (1)
        resident = manager.resident_pages()
        assert {101, 102} <= resident  # the modest tenant is untouched
        assert 1 not in resident
        accounts = manager.tenant_accounts()
        assert accounts["greedy"].quota_evictions == 1
        assert accounts["modest"].quota_evictions == 0

    def test_no_enforcement_while_the_shard_has_free_frames(self):
        manager = manager_of(capacity=8, shards=1, quotas={"a": 1})
        with manager.session("a") as session:
            for page in range(4):
                session.access(page)
        # Over quota but never against a full shard: no quota evictions,
        # and the tenant keeps all its pages.
        assert manager.tenant_accounts()["a"].quota_evictions == 0
        assert manager.resident_pages() == frozenset(range(4))

    def test_unconstrained_manager_never_quota_evicts(self):
        manager = manager_of(capacity=4, shards=1)
        with manager.session("a") as session:
            for page in range(20):
                session.access(page)
        assert manager.tenant_accounts()["a"].quota_evictions == 0

    def test_hit_by_another_tenant_keeps_first_touch_ownership(self):
        manager = manager_of(capacity=4, shards=1)
        owner = manager.session("owner")
        reader = manager.session("reader")
        owner.access(1)
        reader.access(1)  # hit; ownership must not transfer
        accounts = manager.tenant_accounts()
        assert accounts["owner"].resident == 1
        assert accounts["reader"].resident == 0


class TestMetricsSurface:
    def test_service_counters_accumulate(self):
        registry = MetricsRegistry()
        manager = manager_of(registry=registry)
        with manager.session("a") as session:
            session.access(1)
            session.access(1)
        snapshot = registry.snapshot()
        assert snapshot["service.requests"] == 2
        assert snapshot["service.hits"] == 1
        assert snapshot["service.misses"] == 1
        assert snapshot["service.tenant.a.requests"] == 2

    def test_latency_histogram_records_every_request(self):
        manager = manager_of()
        with manager.session("a") as session:
            for page in range(10):
                session.access(page)
        assert manager.registry.percentile("service.request_ms",
                                           0.5) is not None

    def test_shard_gauges_read_live_state(self):
        manager = manager_of(capacity=8, shards=2)
        with manager.session("a") as session:
            for page in range(20):  # more pages than frames: evictions
                session.access(page)
        snapshot = manager.registry.snapshot()
        resident = sum(snapshot[f"service.shard.{i}.resident"]
                       for i in range(2))
        assert resident == len(manager.resident_pages())
        evictions = sum(snapshot[f"service.shard.{i}.evictions"]
                        for i in range(2))
        assert evictions == manager.stats().evictions > 0

    def test_sessions_gauge_tracks_open_sessions(self):
        manager = manager_of()
        gauge = lambda: manager.registry.snapshot()["service.sessions"]
        assert gauge() == 0
        with manager.session("a"):
            assert gauge() == 1
        assert gauge() == 0


class TestDefaultPolicy:
    def test_default_policy_is_lruk2(self):
        manager = manager_of()
        for shard in manager.shards:
            policy = shard.pool.policy
            assert isinstance(policy, LRUKPolicy)
            assert policy.k == 2
