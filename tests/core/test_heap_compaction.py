"""Victim heaps hold one entry per resident page; the rebuild is a bound.

LRU-K and LFU push a page's heap entry only when the page is admitted; a
hit updates the key's source (the history block, or the count and last
access) and victim selection re-keys an out-of-date top in place. The
victim's entry leaves with it when it is the heap top, so without CRP
set-asides, exclusions or driver-chosen victims the heap holds exactly
the residents. The ``2 x resident + HEAP_COMPACT_SLACK`` rebuild bounds
the orphans those leave behind.
"""

import pytest

from repro.core import LRUKPolicy
from repro.core.lruk import HEAP_COMPACT_SLACK
from repro.policies import make_policy
from repro.sim import CacheSimulator, CachedTrace
from repro.workloads import ZipfianWorkload


def _drive(policy, capacity, count, n=2000, seed=11):
    simulator = CacheSimulator(policy, capacity)
    for reference in ZipfianWorkload(n=n).references(count, seed=seed):
        simulator.access_page(reference.page)
    return simulator


def _drive_fused(policy, capacity, count, n=2000, seed=11):
    simulator = CacheSimulator(policy, capacity)
    trace = CachedTrace.materialize(ZipfianWorkload(n=n), count, seed)
    assert simulator.run_fused(trace.page_ids(), 0, None)
    return simulator


def _drive_with_driver_evictions(policy, pages, capacity, every=2):
    """Play ``pages`` through the policy hooks, as a buffer manager would.

    Every ``every``-th eviction the driver picks the victim itself: the
    most recently referenced resident, whose heap entry is rarely the
    top, so its eviction leaves an orphan. The other victims come from
    ``choose_victim``; returns them in order.
    """
    chosen = []
    last_touch = {}
    misses = 0
    for now, page in enumerate(pages, 1):
        if page in policy:
            policy.on_hit(page, now)
        else:
            if len(policy) >= capacity:
                misses += 1
                if misses % every:
                    victim = policy.choose_victim(now, incoming=page)
                    chosen.append(victim)
                else:
                    victim = max(policy.resident_pages,
                                 key=last_touch.__getitem__)
                policy.on_evict(victim, now)
            policy.on_admit(page, now)
        last_touch[page] = now
    return chosen


def _driver_pages():
    return [reference.page for reference in
            ZipfianWorkload(n=800).references(20_000, seed=5)]


POLICIES = {
    "lru-2": lambda: LRUKPolicy(k=2),
    "lru-3": lambda: LRUKPolicy(k=3),
    "lfu": lambda: make_policy("lfu"),
}


class TestHeapCompaction:
    def test_heap_holds_one_entry_per_resident_page(self):
        capacity = 200
        for name, build in POLICIES.items():
            for drive in (_drive, _drive_fused):
                policy = build()
                drive(policy, capacity, 50_000)
                assert len(policy._resident) == capacity, name
                assert len(policy._heap) == len(policy._resident), name
                assert sorted(policy._live.values()) == sorted(policy._heap)
                assert set(policy._live) == policy._resident

    def test_compaction_preserves_heap_scan_equivalence(self):
        # Driver-chosen victims orphan heap entries until the rebuild
        # fires, repeatedly; the two selectors must still agree.
        pages = _driver_pages()
        for crp in (0, 3):
            heap_policy = LRUKPolicy(k=2, correlated_reference_period=crp)
            scan_policy = LRUKPolicy(k=2, correlated_reference_period=crp,
                                     selection="scan")
            heap_chosen = _drive_with_driver_evictions(heap_policy, pages,
                                                       100)
            scan_chosen = _drive_with_driver_evictions(scan_policy, pages,
                                                       100)
            assert heap_policy.stats.heap_compactions > 0, crp
            assert len(heap_policy._heap) <= 2 * 100 + HEAP_COMPACT_SLACK
            assert heap_chosen == scan_chosen, crp
            assert heap_policy.resident_pages == scan_policy.resident_pages
            now = len(pages) + 1
            assert (heap_policy.choose_victim(now)
                    == scan_policy.choose_victim(now))

    def test_reset_clears_compaction_counter(self):
        for crp in (0, 3):
            policy = LRUKPolicy(k=2, correlated_reference_period=crp)
            _drive_with_driver_evictions(policy, _driver_pages(), 100)
            assert policy.stats.heap_compactions > 0, crp
            policy.reset()
            assert policy.stats.heap_compactions == 0
            assert policy._heap == []
            assert policy._live == {}

    @pytest.mark.parametrize("name", ["lru-2", "lfu"])
    def test_orphan_of_a_readmitted_page_is_dropped(self, name):
        policy = POLICIES[name]()
        policy.on_admit(1, 1)
        policy.on_admit(2, 2)
        # Page 1 tops the heap but is excluded, so page 2's entry is not
        # the top when page 2 is evicted: it stays behind as an orphan.
        assert policy.choose_victim(3, exclude=frozenset({1})) == 2
        policy.on_evict(2, 3)
        policy.on_admit(3, 3)
        assert policy.choose_victim(4) == 1
        policy.on_evict(1, 4)
        # Page 2 is back while its orphan is still queued; the orphan must
        # be dropped when it surfaces, not taken for page 2's entry.
        policy.on_admit(2, 4)
        assert len(policy._heap) == 3
        assert policy.choose_victim(5) == 3
        policy.on_evict(3, 5)
        policy.on_admit(4, 5)
        assert len(policy._heap) == len(policy._resident) == 2

    def test_compaction_with_crp_protected_pages(self):
        policy = LRUKPolicy(k=2, correlated_reference_period=16)
        simulator = _drive(policy, 150, 30_000, n=1500)
        assert len(policy._heap) <= 2 * 150 + HEAP_COMPACT_SLACK
        assert simulator.counter.total == 30_000
