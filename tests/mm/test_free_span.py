"""``free_span`` and the ``alloc_order`` double-free check, differentially.

``BuddyAllocator.free_span(pfn, n)`` frees an allocated stretch in one
call.  Its contract is the per-block loop it replaces: ``free_block`` of
each block of the stretch's greedy aligned decomposition, in ascending
address order — the same free-list contents in FIFO order, the same
frame columns and the same max-order listener events.  ``free_block``
now rejects a double free by reading the frame's ``alloc_order``
instead of searching for a free block containing it; the two checks
must agree on every state the allocator reaches.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BuddyError, OutOfMemoryError
from repro.mm.buddy import BuddyAllocator
from repro.mm.frame import NOT_ALLOCATED
from repro.units import order_pages
from tests.mm.buddy_state import buddy_state

MAX_ORDER = 4
N_PAGES = 256


def free_per_block(buddy, pfn, n):
    """The reference: ``free_block`` of each aligned block, ascending."""
    end = pfn + n
    while pfn < end:
        align = (pfn & -pfn).bit_length() - 1 if pfn else MAX_ORDER
        order = min(align, (end - pfn).bit_length() - 1, MAX_ORDER)
        buddy.free_block(pfn, order)
        pfn += order_pages(order)


def allocated_stretch(buddy, pfn, n):
    """The longest prefix of ``[pfn, pfn + n)`` whose frames are all
    allocated (may be empty)."""
    alloc_order = buddy.frames.alloc_order
    base = buddy.frames.base_pfn
    k = 0
    while k < n and pfn + k < buddy.end_pfn and alloc_order[pfn + k - base] != NOT_ALLOCATED:
        k += 1
    return k


def check_double_free_rule(buddy):
    """The ``alloc_order`` check agrees with ``find_free_block``."""
    base = buddy.frames.base_pfn
    for pfn in range(buddy.base_pfn, buddy.end_pfn):
        unallocated = buddy.frames.alloc_order[pfn - base] == NOT_ALLOCATED
        assert unallocated == (buddy.find_free_block(pfn) is not None), pfn


def aged(seed, ops, base_pfn=0, sorted_max_order=False, check=False):
    """A buddy aged by seeded alloc / target / free / span-free steps,
    with a log of its max-order listener events and (with ``check``)
    the double-free rule asserted after every step."""
    buddy = BuddyAllocator(
        base_pfn, N_PAGES, max_order=MAX_ORDER, sorted_max_order=sorted_max_order
    )
    events = []
    buddy.add_max_order_listener(lambda pfn, inserted: events.append((pfn, inserted)))
    rng = random.Random(seed)
    held = []
    for _ in range(ops):
        roll = rng.random()
        order = rng.randint(0, MAX_ORDER)
        if roll < 0.35:
            try:
                held.append((buddy.alloc_block(order), order))
            except OutOfMemoryError:
                pass
        elif roll < 0.6:
            target = base_pfn + rng.randrange(0, N_PAGES, order_pages(order))
            if buddy.alloc_target(target, order):
                held.append((target, order))
        elif roll < 0.75:
            buddy.alloc_pages_bulk(rng.randint(1, 40))
        elif roll < 0.9 and held:
            buddy.free_block(*held.pop(rng.randrange(len(held))))
        else:
            pfn = base_pfn + rng.randrange(N_PAGES)
            n = allocated_stretch(buddy, pfn, rng.randint(1, 3 * order_pages(MAX_ORDER)))
            if n:
                buddy.free_span(pfn, n)
                held = [(p, o) for p, o in held
                        if p + order_pages(o) <= pfn or p >= pfn + n]
        if check:
            check_double_free_rule(buddy)
    return buddy, events


def columns(buddy):
    frames = buddy.frames
    return frames.mapcount.tolist(), frames.owner.tolist()


def map_some(buddy, seed):
    """Give allocated frames mapcounts and owners, which a free clears."""
    rng = random.Random(seed)
    frames = buddy.frames
    for i in range(frames.n_pages):
        if frames.alloc_order[i] != NOT_ALLOCATED and rng.random() < 0.5:
            frames.mapcount[i] = rng.randint(0, 2)
            frames.owner[i] = rng.randint(1, 5)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.integers(min_value=0, max_value=160),
    base_pfn=st.sampled_from([0, 1024]),
    offset=st.integers(min_value=0, max_value=N_PAGES - 1),
    n=st.integers(min_value=1, max_value=N_PAGES),
    sorted_max_order=st.booleans(),
)
def test_free_span_matches_per_block_frees(seed, ops, base_pfn, offset, n,
                                           sorted_max_order):
    aging = dict(seed=seed, ops=ops, base_pfn=base_pfn,
                 sorted_max_order=sorted_max_order)
    spanned, spanned_events = aged(**aging)
    reference, reference_events = aged(**aging)
    map_some(spanned, seed)
    map_some(reference, seed)
    pfn = base_pfn + offset
    n = allocated_stretch(spanned, pfn, n)
    spanned_events.clear()
    reference_events.clear()
    spanned.free_span(pfn, n)
    free_per_block(reference, pfn, n)
    assert buddy_state(spanned) == buddy_state(reference)
    assert columns(spanned) == columns(reference)
    assert spanned_events == reference_events


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.integers(min_value=0, max_value=80),
    sorted_max_order=st.booleans(),
)
def test_alloc_order_check_agrees_with_free_block_search(seed, ops, sorted_max_order):
    aged(seed, ops, sorted_max_order=sorted_max_order, check=True)


class TestDoubleFree:
    def test_free_frame_inside_a_span_raises_and_frees_nothing(self):
        buddy = BuddyAllocator(0, N_PAGES, max_order=MAX_ORDER)
        buddy.alloc_pages_bulk(N_PAGES)
        buddy.free_block(37, 0)  # a hole in the middle, not at a block head
        before = buddy_state(buddy)
        with pytest.raises(BuddyError, match="double free"):
            buddy.free_span(32, 16)
        assert buddy_state(buddy) == before

    def test_free_block_of_a_free_frame_raises(self):
        buddy = BuddyAllocator(0, N_PAGES, max_order=MAX_ORDER)
        buddy.alloc_pages_bulk(N_PAGES)
        buddy.free_span(0, 8)
        for pfn, order in ((0, 0), (4, 2), (7, 0)):
            with pytest.raises(BuddyError, match="double free"):
                buddy.free_block(pfn, order)

    def test_span_outside_the_managed_range_raises(self):
        buddy = BuddyAllocator(1024, N_PAGES, max_order=MAX_ORDER)
        for pfn, n in ((1000, 30), (1024 + N_PAGES - 4, 8), (1024, -1)):
            with pytest.raises(BuddyError, match="outside"):
                buddy.free_span(pfn, n)


def test_whole_allocator_span_coalesces_to_max_order_blocks():
    buddy = BuddyAllocator(0, N_PAGES, max_order=MAX_ORDER, sorted_max_order=True)
    fresh = buddy_state(buddy)
    buddy.alloc_pages_bulk(N_PAGES)
    events = []
    buddy.add_max_order_listener(lambda pfn, inserted: events.append((pfn, inserted)))
    buddy.free_span(0, N_PAGES)
    assert buddy_state(buddy) == fresh
    block = order_pages(MAX_ORDER)
    assert events == [(pfn, True) for pfn in range(0, N_PAGES, block)]
