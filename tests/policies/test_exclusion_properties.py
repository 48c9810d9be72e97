"""Victim choice under exclusions and unconfirmed choices (hypothesis).

The buffer pool asks for a victim with ``choose_victim(exclude=pinned)``,
which no fused kernel exercises, and nothing obliges a caller to evict
the page it was offered. These properties drive the policy hooks
directly: at every eviction the policy is asked once or twice, each time
with a random exclusion set, and only the last answer is evicted. The
LRU-K heap selector must agree with the literal Figure 2.1 scan, and
LFU with the brute-force minimum of (count, last access) over the
residents that are not excluded.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LRUKPolicy
from repro.errors import NoEvictableFrameError
from repro.policies import make_policy

EXCLUSIONS = st.frozensets(st.integers(min_value=0, max_value=7),
                           max_size=3)

#: (page referenced, exclusion set of the first choice, exclusion set of
#: a second choice or None for a single one).
STEPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),
              EXCLUSIONS, st.none() | EXCLUSIONS),
    min_size=1, max_size=150)

CAPACITIES = st.integers(min_value=1, max_value=6)


def choose(policy, now, exclude):
    """The offered victim, or None when every resident is excluded."""
    try:
        return policy.choose_victim(now, exclude=exclude)
    except NoEvictableFrameError:
        return None


def assert_heap_tracks_residents(policy, admitted):
    """Each resident has one live entry on the heap; the rest are orphans.

    ``admitted`` maps each resident page to its admission time. An
    orphan is the entry of a page that left the buffer: its page is not
    resident, or it was queued before the page's latest admission.
    """
    assert set(policy._live) == policy._resident == set(admitted)
    live = {id(entry) for entry in policy._live.values()}
    assert live <= {id(entry) for entry in policy._heap}
    for _, first, page in (entry for entry in policy._heap
                           if id(entry) not in live):
        assert page not in admitted or first < admitted[page]


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, capacity=CAPACITIES,
       k=st.integers(min_value=1, max_value=3),
       crp=st.integers(min_value=0, max_value=5))
def test_lruk_heap_equals_scan_under_exclusions(steps, capacity, k, crp):
    heap = LRUKPolicy(k=k, correlated_reference_period=crp)
    scan = LRUKPolicy(k=k, correlated_reference_period=crp,
                      selection="scan")
    admitted = {}
    for now, (page, first, second) in enumerate(steps, 1):
        if page in heap:
            heap.on_hit(page, now)
            scan.on_hit(page, now)
            continue
        if len(heap) >= capacity:
            victim = None
            for exclude in (first, second):
                if exclude is not None:
                    victim = choose(heap, now, exclude)
                    assert victim == choose(scan, now, exclude)
            if victim is None:
                victim = heap.choose_victim(now)
                assert victim == scan.choose_victim(now)
            heap.on_evict(victim, now)
            scan.on_evict(victim, now)
            del admitted[victim]
        heap.on_admit(page, now)
        scan.on_admit(page, now)
        admitted[page] = now
        assert_heap_tracks_residents(heap, admitted)
    assert heap.stats == scan.stats


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, capacity=CAPACITIES,
       aging_period=st.sampled_from([None, 7]))
def test_lfu_offers_the_least_frequent_unexcluded_resident(
        steps, capacity, aging_period):
    if aging_period is None:
        policy = make_policy("lfu")
    else:
        policy = make_policy("lfu-aged", aging_period=aging_period)
    count, last, admitted = {}, {}, {}
    last_aged = 0

    def expected(exclude):
        candidates = [(count.get(p, 0), last[p], p)
                      for p in policy.resident_pages if p not in exclude]
        return min(candidates)[2] if candidates else None

    for now, (page, first, second) in enumerate(steps, 1):
        if page in policy:
            policy.on_hit(page, now)
        else:
            if len(policy) >= capacity:
                victim = None
                for exclude in (first, second):
                    if exclude is not None:
                        victim = choose(policy, now, exclude)
                        assert victim == expected(exclude)
                if victim is None:
                    victim = policy.choose_victim(now)
                    assert victim == expected(frozenset())
                policy.on_evict(victim, now)
                del admitted[victim]
            policy.on_admit(page, now)
            admitted[page] = now
        # The model: AgedLFUPolicy halves every count, then bumps.
        if aging_period is not None and now - last_aged >= aging_period:
            last_aged = now
            count = {p: c // 2 for p, c in count.items() if c // 2 > 0}
        count[page] = count.get(page, 0) + 1
        last[page] = now
        assert_heap_tracks_residents(policy, admitted)
