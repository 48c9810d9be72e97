"""The miss path: residency bookkeeping from the pool's reported victim.

On a miss ``ShardedBufferManager.fetch`` takes the evicted page from
``BufferPool.last_victim`` instead of comparing resident-set snapshots.
These tests hold the bookkeeping built on it (page ownership, per-tenant
recency, the ledger's residency counts) equal to the pools' own state,
and pin down that the request path never snapshots a resident set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.core import LRUKPolicy
from repro.policies import LRUPolicy
from repro.service import ShardedBufferManager

TENANTS = ("a", "b", "c")

# A request is (tenant index, page, hold). A held request keeps its pin
# until the next held request, so quota enforcement meets pinned pages.
requests = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(TENANTS) - 1),
              st.integers(min_value=0, max_value=40), st.booleans()),
    min_size=1, max_size=200)


def assert_bookkeeping_matches_pools(manager):
    owned = {}
    for shard in manager.shards:
        resident = shard.pool.resident_pages
        assert set(shard.owner) == resident
        recency = set()
        for tenant, pages in shard.tenant_lru.items():
            assert all(shard.owner[page] == tenant for page in pages)
            recency.update(pages)
        assert recency == resident
        for tenant in shard.owner.values():
            owned[tenant] = owned.get(tenant, 0) + 1
    for tenant, account in manager.tenant_accounts().items():
        assert account.resident == owned.get(tenant, 0)


@given(shards=st.integers(min_value=1, max_value=3),
       frames_per_shard=st.integers(min_value=2, max_value=6),
       quota=st.integers(min_value=1, max_value=4), requests=requests)
@settings(max_examples=60, deadline=None)
def test_bookkeeping_follows_the_pools(shards, frames_per_shard, quota,
                                       requests):
    manager = ShardedBufferManager(
        shards * frames_per_shard, shards=shards,
        quotas={"a": quota, "b": quota + 2},
        policy_factory=lambda: LRUKPolicy(k=2))
    sessions = [manager.session(tenant) for tenant in TENANTS]
    held = None
    for tenant, page, hold in requests:
        # At most one earlier page is still pinned and every shard has
        # two frames or more, so no fetch is refused.
        session = sessions[tenant]
        session.fetch(page)
        if hold:
            if held is not None:
                held[0].unpin(held[1])
            held = (session, page)
        else:
            session.unpin(page)
        assert_bookkeeping_matches_pools(manager)


def test_request_path_takes_no_resident_snapshot(monkeypatch):
    manager = ShardedBufferManager(4, shards=1, quotas={"greedy": 2},
                                   policy_factory=LRUPolicy)
    greedy = manager.session("greedy")
    modest = manager.session("modest")

    def snapshot(pool):
        raise AssertionError("the request path built a resident snapshot")

    monkeypatch.setattr(BufferPool, "resident_pages", property(snapshot))
    modest.access(101)
    modest.access(102)          # misses into free frames
    greedy.access(1)
    greedy.access(2)            # the shard is now full
    greedy.access(3)            # over quota: evicts greedy's page 1
    modest.access(103)          # the policy evicts page 101
    assert modest.access(103)   # a hit
    gauges = manager.registry.snapshot()
    monkeypatch.undo()

    assert gauges["service.shard.0.resident"] == 4
    assert manager.tenant_accounts()["greedy"].quota_evictions == 1
    assert manager.stats().evictions == 2
    assert manager.resident_pages() == {2, 3, 102, 103}
    assert_bookkeeping_matches_pools(manager)
