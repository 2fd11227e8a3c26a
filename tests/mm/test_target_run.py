"""``alloc_target_run`` against its sequential reference.

``BuddyAllocator.alloc_target_run(pfn, n)`` claims the longest free
prefix of ``[pfn, pfn + n)`` in one call.  Its contract is that the
claimed count and the whole allocator state — every free list's
contents in FIFO order, the frame columns, ``free_pages`` and the
max-order listener events — equal those of sequential
``alloc_target(pfn + i, 0)`` calls that stop at the first failure.
Both sides start from the same aged allocator.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.mm.buddy import BuddyAllocator
from repro.mm.physmem import PhysicalMemory
from repro.units import order_pages
from tests.mm.buddy_state import buddy_state, machine_state

MAX_ORDER = 4
BLOCK = order_pages(MAX_ORDER)
N_PAGES = 512


def aged_buddy(seed, ops, base_pfn=0, n_pages=N_PAGES, sorted_max_order=False):
    """A buddy aged by ``ops`` seeded alloc/free/target steps, with a
    log of its max-order listener events."""
    buddy = BuddyAllocator(
        base_pfn, n_pages, max_order=MAX_ORDER, sorted_max_order=sorted_max_order
    )
    events = []
    buddy.add_max_order_listener(lambda pfn, inserted: events.append((pfn, inserted)))
    rng = random.Random(seed)
    held = []
    for _ in range(ops):
        roll = rng.random()
        order = rng.randint(0, MAX_ORDER)
        if roll < 0.4:
            try:
                held.append((buddy.alloc_block(order), order))
            except OutOfMemoryError:
                pass
        elif roll < 0.7:
            target = base_pfn + rng.randrange(0, n_pages, order_pages(order))
            if buddy.alloc_target(target, order):
                held.append((target, order))
        elif held:
            buddy.free_block(*held.pop(rng.randrange(len(held))))
    return buddy, events


def sequential_run(buddy, pfn, n):
    got = 0
    while got < n and buddy.alloc_target(pfn + got, 0):
        got += 1
    return got


def claim_both(pfn, n, **aging):
    """Claim ``[pfn, pfn + n)`` on two identically aged buddies, batched
    and sequentially; asserts identity and returns the batched buddy's
    pre-claim state, the claimed count and the post-claim buddy."""
    batched, batched_events = aged_buddy(**aging)
    reference, reference_events = aged_buddy(**aging)
    before = buddy_state(batched)
    got = batched.alloc_target_run(pfn, n)
    assert got == sequential_run(reference, pfn, n)
    assert buddy_state(batched) == buddy_state(reference)
    assert batched_events == reference_events
    return before, got, batched


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.integers(min_value=0, max_value=160),
    base_pfn=st.sampled_from([0, 1024]),
    offset=st.integers(min_value=-4, max_value=N_PAGES + 4),
    n=st.integers(min_value=0, max_value=3 * BLOCK),
    sorted_max_order=st.booleans(),
)
def test_matches_sequential_targets(seed, ops, base_pfn, offset, n, sorted_max_order):
    claim_both(
        base_pfn + offset, n, seed=seed, ops=ops, base_pfn=base_pfn,
        sorted_max_order=sorted_max_order,
    )


def block_end(buddy, pfn):
    """One past the free block containing ``pfn``."""
    head, order = buddy.find_free_block(pfn)
    return head + order_pages(order)


def free_run_length(buddy, pfn):
    n = 0
    while buddy.contains(pfn + n) and buddy.is_free(pfn + n):
        n += 1
    return n


class TestCases:
    """The shapes the property test must cover, each pinned explicitly."""

    AGING = dict(seed=7, ops=120)

    def free_stretches(self, **aging):
        """(start, length) of maximal free stretches of the aged buddy."""
        buddy, _ = aged_buddy(**aging)
        out, pfn = [], buddy.base_pfn
        while pfn < buddy.end_pfn:
            n = free_run_length(buddy, pfn)
            if n:
                out.append((pfn, n))
            pfn += max(n, 1)
        return buddy, out

    def test_start_mid_block_stop_at_allocated_frame(self):
        buddy, stretches = self.free_stretches(**self.AGING)
        start, length = next(
            (s, n) for s, n in stretches
            if s + n < buddy.end_pfn and n >= 3
            and buddy.find_free_block(s + 1)[0] <= s  # s + 1 is mid-block
        )
        _, got, after = claim_both(start + 1, length + 8, **self.AGING)
        assert got == length - 1
        assert not after.is_free(start + length)

    def test_cross_free_block_boundary(self):
        buddy, stretches = self.free_stretches(**self.AGING)
        # A stretch made of several free blocks: the claim removes each.
        start, length = next(
            (s, n) for s, n in stretches if s + n > block_end(buddy, s)
        )
        _, got, _ = claim_both(start, length, **self.AGING)
        assert got == length

    def test_reach_the_range_end(self):
        aging = dict(seed=3, ops=0)
        _, got, after = claim_both(N_PAGES - 5, 40, **aging)
        assert got == 5
        assert after.free_pages == N_PAGES - 5

    def test_sorted_max_order(self):
        aging = dict(seed=11, ops=60, sorted_max_order=True)
        buddy, stretches = self.free_stretches(**aging)
        start, length = max(stretches, key=lambda s: s[1])
        assert length > 2 * BLOCK  # crosses whole max-order blocks
        before, got, after = claim_both(start + 3, length, **aging)
        assert got == length - 3
        assert before[0][MAX_ORDER] != list(after.iter_free_blocks(MAX_ORDER))

    def test_allocated_or_unmanaged_start_claims_nothing(self):
        buddy, _ = aged_buddy(**self.AGING)
        allocated = next(p for p in range(N_PAGES) if not buddy.is_free(p))
        for pfn in (allocated, -1, N_PAGES, N_PAGES + 100):
            before, got, after = claim_both(pfn, 8, **self.AGING)
            assert got == 0 and buddy_state(after) == before


class TestPhysicalMemoryRouting:
    def test_claim_stops_at_the_zone_end(self):
        # The run in node 0 stops at its end even though node 1's first
        # frames are free; the caller continues there with a new claim.
        mem = PhysicalMemory([256, 256], max_order=MAX_ORDER)
        assert mem.alloc_target_run(250, 12) == 6
        assert mem.alloc_target_run(256, 6) == 6
        reference = PhysicalMemory([256, 256], max_order=MAX_ORDER)
        for pfn in range(250, 262):
            assert reference.alloc_target(pfn, 0)
        assert machine_state(mem) == machine_state(reference)

    def test_pfn_outside_every_zone_raises(self):
        mem = PhysicalMemory([256], max_order=MAX_ORDER)
        with pytest.raises(IndexError):
            mem.alloc_target_run(256, 1)
