"""Unit tests for the buddy allocator."""

import numpy as np
import pytest

from repro.errors import BuddyError, OutOfMemoryError
from repro.mm.buddy import BuddyAllocator
from repro.units import order_pages
from tests.mm.buddy_state import buddy_state


def make_buddy(n_pages=1024, max_order=5, **kw):
    return BuddyAllocator(0, n_pages, max_order=max_order, **kw)


class TestConstruction:
    def test_all_memory_starts_free(self):
        buddy = make_buddy()
        assert buddy.free_pages == 1024

    def test_seeded_into_max_order_blocks(self):
        buddy = make_buddy(n_pages=128, max_order=5)
        assert len(list(buddy.iter_free_blocks(5))) == 4
        assert all(len(list(buddy.iter_free_blocks(o))) == 0 for o in range(5))

    def test_non_power_of_two_range_is_carved_greedily(self):
        buddy = BuddyAllocator(0, 32 + 8 + 2, max_order=5)
        assert buddy.free_pages == 42
        assert len(list(buddy.iter_free_blocks(5))) == 1
        assert len(list(buddy.iter_free_blocks(3))) == 1
        assert len(list(buddy.iter_free_blocks(1))) == 1

    def test_misaligned_base_rejected(self):
        with pytest.raises(BuddyError):
            BuddyAllocator(3, 64, max_order=4)

    def test_nonzero_aligned_base(self):
        buddy = BuddyAllocator(64, 64, max_order=4)
        pfn = buddy.alloc_block(0)
        assert 64 <= pfn < 128

    def test_empty_range_rejected(self):
        with pytest.raises(BuddyError):
            BuddyAllocator(0, 0)


class TestAllocBlock:
    def test_alloc_reduces_free_pages(self):
        buddy = make_buddy()
        buddy.alloc_block(3)
        assert buddy.free_pages == 1024 - 8

    def test_alloc_returns_aligned_head(self):
        buddy = make_buddy()
        for order in range(6):
            pfn = buddy.alloc_block(order)
            assert pfn % order_pages(order) == 0

    def test_alloc_marks_frames_in_use(self):
        buddy = make_buddy()
        pfn = buddy.alloc_block(2)
        for p in range(pfn, pfn + 4):
            assert buddy.frames.in_use(p)
            assert not buddy.is_free(p)

    def test_split_creates_lower_order_blocks(self):
        buddy = make_buddy(n_pages=32, max_order=5)
        buddy.alloc_block(0)
        sizes = buddy.free_list_sizes()
        assert sizes == [1, 1, 1, 1, 1, 0]

    def test_exhaustion_raises(self):
        buddy = make_buddy(n_pages=32, max_order=5)
        buddy.alloc_block(5)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_block(0)

    def test_bad_order_rejected(self):
        buddy = make_buddy(max_order=5)
        with pytest.raises(BuddyError):
            buddy.alloc_block(6)
        with pytest.raises(BuddyError):
            buddy.alloc_block(-1)

    def test_lifo_reuse(self):
        # Fill memory completely so freed frames cannot coalesce away,
        # then check the most recently freed frame is reused first
        # (Linux-like head insertion).
        buddy = make_buddy(n_pages=8, max_order=3)
        frames = [buddy.alloc_block(0) for _ in range(8)]
        first, second = frames[0], frames[5]
        buddy.free_block(first, 0)
        buddy.free_block(second, 0)
        assert buddy.alloc_block(0) == second


class TestAllocTarget:
    def test_target_inside_free_block_succeeds(self):
        buddy = make_buddy()
        assert buddy.alloc_target(100, 0)
        assert buddy.frames.in_use(100)
        assert buddy.free_pages == 1023

    def test_target_already_allocated_fails(self):
        buddy = make_buddy()
        pfn = buddy.alloc_block(0)
        assert not buddy.alloc_target(pfn, 0)

    def test_target_split_preserves_remaining_memory(self):
        buddy = make_buddy(n_pages=32, max_order=5)
        assert buddy.alloc_target(13, 0)
        assert buddy.free_pages == 31
        # All other frames must still be allocatable.
        for p in range(32):
            if p != 13:
                assert buddy.is_free(p), f"frame {p} lost"

    def test_target_huge_block(self):
        buddy = make_buddy()
        assert buddy.alloc_target(512, 4)
        for p in range(512, 528):
            assert buddy.frames.in_use(p)

    def test_target_misaligned_raises(self):
        buddy = make_buddy()
        with pytest.raises(BuddyError):
            buddy.alloc_target(3, 2)

    def test_target_beyond_range_fails(self):
        buddy = make_buddy(n_pages=64, max_order=5)
        assert not buddy.alloc_target(4096, 0)

    def test_target_in_partially_used_region_fails(self):
        buddy = make_buddy(n_pages=32, max_order=5)
        assert buddy.alloc_target(8, 0)
        # The order-3 block [8,16) is broken: a huge target there fails.
        assert not buddy.alloc_target(8, 3)
        # But an untouched order-3 block still works.
        assert buddy.alloc_target(16, 3)

    def test_consecutive_targets_build_contiguity(self):
        buddy = make_buddy()
        for p in range(40, 72):
            assert buddy.alloc_target(p, 0)
        assert buddy.free_pages == 1024 - 32


class TestFree:
    def test_free_restores_pages(self):
        buddy = make_buddy()
        pfn = buddy.alloc_block(4)
        buddy.free_block(pfn, 4)
        assert buddy.free_pages == 1024

    def test_full_coalescing_restores_max_order_block(self):
        buddy = make_buddy(n_pages=32, max_order=5)
        pfns = [buddy.alloc_block(0) for _ in range(32)]
        for pfn in pfns:
            buddy.free_block(pfn, 0)
        assert len(list(buddy.iter_free_blocks(5))) == 1

    def test_double_free_detected(self):
        buddy = make_buddy()
        pfn = buddy.alloc_block(0)
        buddy.free_block(pfn, 0)
        with pytest.raises(BuddyError):
            buddy.free_block(pfn, 0)

    def test_free_out_of_range_rejected(self):
        buddy = make_buddy(n_pages=64, max_order=5)
        with pytest.raises(BuddyError):
            buddy.free_block(4096, 0)

    def test_coalescing_stops_at_max_order(self):
        buddy = make_buddy(n_pages=64, max_order=4)
        a = buddy.alloc_block(4)
        b = buddy.alloc_block(4)
        buddy.free_block(a, 4)
        buddy.free_block(b, 4)
        # Two adjacent max-order blocks stay separate in the buddy...
        assert len(list(buddy.iter_free_blocks(4))) == 4


class TestAllocPagesBulk:
    def test_zero_pages_is_a_noop(self):
        buddy = make_buddy(n_pages=64, max_order=4)
        before = buddy.free_list_sizes()
        out = buddy.alloc_pages_bulk(0)
        assert len(out) == 0 and out.dtype == np.int64
        assert buddy.free_pages == 64
        assert buddy.free_list_sizes() == before

    def test_matches_sequential_alloc(self):
        # The whole point of the bulk path: same PFN stream and same
        # end state as n alloc_block(0) calls, order for order.
        for n in (1, 7, 16, 17, 64, 100):
            bulk, seq = make_buddy(), make_buddy()
            # Age both identically so free lists are non-trivial.
            for b in (bulk, seq):
                held = [b.alloc_block(0) for _ in range(48)]
                for pfn in held[::3]:
                    b.free_block(pfn, 0)
            got = bulk.alloc_pages_bulk(n).tolist()
            want = [seq.alloc_block(0) for _ in range(n)]
            assert got == want
            # List contents in FIFO order, not just sizes: later
            # alloc_block pops depend on it.
            assert buddy_state(bulk) == buddy_state(seq)

    def test_partial_max_order_block_survivors(self):
        # Taking 3 pages out of a fresh order-4 block leaves the 13-page
        # tail carved greedily from its low end: 1 + 4 + 8.
        buddy = make_buddy(n_pages=16, max_order=4)
        out = buddy.alloc_pages_bulk(3)
        assert out.tolist() == [0, 1, 2]
        assert buddy.free_list_sizes() == [1, 0, 1, 1, 0]

    def test_spans_max_order_boundary(self):
        # 24 pages from 16-page max-order blocks: consumes one block
        # entirely and half of the next (seeded lists pop LIFO, so the
        # highest-addressed block goes first).
        buddy = make_buddy(n_pages=64, max_order=4)
        out = buddy.alloc_pages_bulk(24)
        assert out.tolist() == list(range(48, 64)) + list(range(32, 40))
        assert buddy.free_pages == 40
        assert buddy.free_list_sizes() == [0, 0, 0, 1, 2]

    def test_exhaustion_returns_short_never_raises(self):
        buddy = make_buddy(n_pages=32, max_order=4)
        out = buddy.alloc_pages_bulk(100)
        assert len(out) == 32
        assert buddy.free_pages == 0
        assert len(buddy.alloc_pages_bulk(5)) == 0

    def test_bulk_then_free_restores_max_order_blocks(self):
        buddy = make_buddy(n_pages=64, max_order=4)
        out = buddy.alloc_pages_bulk(24)
        for pfn in out.tolist():
            buddy.free_block(pfn, 0)
        assert buddy.free_pages == 64
        assert buddy.free_list_sizes() == [0, 0, 0, 0, 4]


class TestMaxOrderBoundary:
    def test_split_and_remerge_last_block(self):
        # Break the highest max-order block down to a single page at the
        # very end of the managed range, then coalesce it back.
        buddy = make_buddy(n_pages=64, max_order=4)
        last = buddy.end_pfn - 1
        assert buddy.alloc_target(last, 0)
        assert buddy.free_pages == 63
        sizes = buddy.free_list_sizes()
        assert sizes == [1, 1, 1, 1, 3]
        buddy.free_block(last, 0)
        assert buddy.free_list_sizes() == [0, 0, 0, 0, 4]

    def test_merge_does_not_cross_max_order(self):
        # Freeing two buddies at max_order must not merge into a
        # (nonexistent) max_order+1 block.
        buddy = make_buddy(n_pages=32, max_order=4)
        a = buddy.alloc_block(4)
        b = buddy.alloc_block(4)
        buddy.free_block(a, 4)
        buddy.free_block(b, 4)
        assert buddy.free_list_sizes() == [0, 0, 0, 0, 2]

    def test_bulk_drains_every_max_order_block(self):
        # Bulk allocation walking the whole range touches each
        # max-order block exactly once and in list order.
        buddy = make_buddy(n_pages=64, max_order=4)
        out = buddy.alloc_pages_bulk(64)
        assert sorted(out.tolist()) == list(range(64))
        assert buddy.free_pages == 0
        for pfn in range(0, 64, 16):
            buddy.free_block(pfn, 4)
        assert buddy.free_pages == 64


class TestFindFreeBlock:
    def test_find_in_fresh_memory(self):
        buddy = make_buddy(n_pages=64, max_order=5)
        head, order = buddy.find_free_block(45)
        assert head == 32 and order == 5

    def test_find_after_alloc(self):
        buddy = make_buddy(n_pages=64, max_order=5)
        buddy.alloc_target(0, 0)
        head, order = buddy.find_free_block(1)
        assert head == 1 and order == 0

    def test_outside_range_is_none(self):
        buddy = make_buddy(n_pages=64, max_order=5)
        assert buddy.find_free_block(9999) is None


class TestSortedMaxOrder:
    def test_sorted_pop_is_lowest_address(self):
        buddy = make_buddy(n_pages=1024, max_order=5, sorted_max_order=True)
        # Allocate + free in scrambled order, then the next max-order
        # pop must still be the lowest address.
        blocks = [buddy.alloc_block(5) for _ in range(4)]
        for b in reversed(blocks):
            buddy.free_block(b, 5)
        assert buddy.alloc_block(5) == min(blocks)

    def test_unsorted_pop_is_lifo(self):
        buddy = make_buddy(n_pages=1024, max_order=5, sorted_max_order=False)
        blocks = [buddy.alloc_block(5) for _ in range(4)]
        for b in blocks:
            buddy.free_block(b, 5)
        assert buddy.alloc_block(5) == blocks[-1]
