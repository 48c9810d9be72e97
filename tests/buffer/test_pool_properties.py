"""Property-based stress tests for the buffer pool with pins and writes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.core import LRUKPolicy
from repro.errors import NoEvictableFrameError
from repro.policies import ClockPolicy, FIFOPolicy, LRUPolicy, MRUPolicy
from repro.storage import SimulatedDisk
from repro.types import AccessKind

PAGES = 12
CAPACITY = 4

# An operation is (op, page): fetch-read, fetch-write, unpin, flush,
# forced eviction.
operations = st.lists(
    st.tuples(st.sampled_from(["read", "write", "unpin", "flush", "evict"]),
              st.integers(min_value=0, max_value=PAGES - 1)),
    min_size=1, max_size=120)


def build_pool(policy):
    disk = SimulatedDisk()
    disk.allocate_many(PAGES)
    return disk, BufferPool(disk, policy, CAPACITY)


def scanned_pins(pool):
    """The pinned pages as a scan of every frame finds them."""
    return {frame.page_id for frame in pool._frames if frame.pin_count}


def run_ops(pool, ops):
    """Apply operations, tracking our own pin model.

    After every operation the pool's incremental pinned set must equal a
    scan of the frames; after every fetch the reported victim must be
    the page that left the resident set, or ``None`` when none did.
    """
    pins = {}
    for op, page in ops:
        if op in ("read", "write"):
            kind = AccessKind.WRITE if op == "write" else AccessKind.READ
            before = pool.resident_pages
            try:
                pool.fetch(page, pin=True, kind=kind)
            except NoEvictableFrameError:
                # Legal refusal: everything is pinned. Drop one pin to
                # keep the sequence progressing.
                held = next(iter(pins))
                pool.unpin(held)
                pins[held] -= 1
                if pins[held] == 0:
                    del pins[held]
            else:
                pins[page] = pins.get(page, 0) + 1
            victim = pool.last_victim
            assert before - pool.resident_pages == (
                set() if victim is None else {victim})
        elif op == "unpin":
            if pins.get(page):
                pool.unpin(page)
                pins[page] -= 1
                if pins[page] == 0:
                    del pins[page]
        elif op == "flush":
            if pool.is_resident(page):
                pool.flush(page)
        elif op == "evict":
            if pins.get(page):
                with pytest.raises(NoEvictableFrameError):
                    pool.evict_page(page)
            elif pool.is_resident(page):
                pool.evict_page(page)
        assert pool._pinned == scanned_pins(pool) == set(pins)
    return pins


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_pinned_pages_survive_everything(ops):
    disk, pool = build_pool(LRUPolicy())
    pins = run_ops(pool, ops)
    # Every page our model believes is pinned must be resident with the
    # same pin count.
    for page, count in pins.items():
        assert pool.is_resident(page)
        assert pool.pin_count(page) == count


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_capacity_and_page_table_consistency(ops):
    disk, pool = build_pool(LRUKPolicy(k=2))
    run_ops(pool, ops)
    resident = pool.resident_pages
    assert len(resident) <= CAPACITY
    for page in resident:
        frame = pool.frame_of(page)
        assert frame.page is not None
        assert frame.page.page_id == page
    # Policy residency mirrors the pool's.
    assert pool.policy.resident_pages == resident


@given(ops=operations)
@settings(max_examples=40, deadline=None)
def test_flush_all_then_disk_matches_buffer(ops):
    disk, pool = build_pool(LRUPolicy())
    run_ops(pool, ops)
    pool.flush_all()
    for page in pool.resident_pages:
        frame = pool.frame_of(page)
        assert not frame.dirty
        assert disk.read(page).payload == frame.page.payload


@given(ops=operations)
@settings(max_examples=40, deadline=None)
def test_physical_io_accounting(ops):
    disk, pool = build_pool(LRUPolicy())
    run_ops(pool, ops)
    # Reads: one per miss. Writes: dirty evictions + explicit flushes.
    assert disk.stats.reads == pool.stats.misses
    assert disk.stats.writes == (pool.stats.dirty_evictions
                                 + pool.stats.flushes)


@given(ops=operations,
       make_policy=st.sampled_from([LRUPolicy, FIFOPolicy, ClockPolicy,
                                    MRUPolicy, lambda: LRUKPolicy(k=2)]))
@settings(max_examples=60, deadline=None)
def test_reported_victim_is_the_page_that_left(ops, make_policy):
    # run_ops checks last_victim against resident_pages after every
    # fetch; each policy chooses its victims differently.
    disk, pool = build_pool(make_policy())
    run_ops(pool, ops)
