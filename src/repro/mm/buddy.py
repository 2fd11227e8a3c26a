"""Power-of-two buddy allocator with targeted allocation.

This is the core physical allocator the paper's CA paging extends.  It
keeps per-order free lists for orders ``0..max_order`` inclusive (Linux
``MAX_ORDER`` semantics: the largest tracked aligned block is
``2**max_order`` base pages, 4 MiB by default).  On top of the stock
interface it provides the two hooks CA paging needs:

- :meth:`BuddyAllocator.alloc_target` — allocate a *specific* aligned
  block if (and only if) it is currently free, splitting a larger free
  block around it when necessary (paper §III-B, Fig. 2b);
- listener callbacks on every insertion/removal of a ``max_order``
  block, which the :class:`~repro.mm.contiguity_map.ContiguityMap` uses
  to track free clusters without scanning;
- an optional *physically sorted* ``max_order`` free list (paper
  §III-C, "fragmentation restraint"), which makes fallback allocations
  consume low addresses first instead of scattering across memory.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator

import numpy as np

from repro.errors import BuddyError, OutOfMemoryError
from repro.mm.frame import FrameTable
from repro.units import DEFAULT_MAX_ORDER, is_aligned, order_pages


class _FifoList:
    """Insertion-ordered free list (Linux-like: freed blocks reused LIFO)."""

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: dict[int, None] = {}

    def add(self, pfn: int) -> None:
        self._blocks[pfn] = None

    def remove(self, pfn: int) -> None:
        del self._blocks[pfn]

    def pop(self) -> int:
        # Reuse the most recently freed block first, like list_add() +
        # first-entry removal in Linux.
        pfn = next(reversed(self._blocks))
        del self._blocks[pfn]
        return pfn

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[int]:
        return iter(self._blocks)


class _SortedList:
    """Physically sorted free list (the paper's MAX_ORDER sorting)."""

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: list[int] = []

    def add(self, pfn: int) -> None:
        bisect.insort(self._blocks, pfn)

    def remove(self, pfn: int) -> None:
        i = bisect.bisect_left(self._blocks, pfn)
        if i >= len(self._blocks) or self._blocks[i] != pfn:
            raise KeyError(pfn)
        del self._blocks[i]

    def pop(self) -> int:
        # Lowest physical address first: fallback allocations chew from
        # one end of memory instead of fragmenting random clusters.
        return self._blocks.pop(0)

    def __contains__(self, pfn: int) -> bool:
        i = bisect.bisect_left(self._blocks, pfn)
        return i < len(self._blocks) and self._blocks[i] == pfn

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[int]:
        return iter(self._blocks)


#: Listener signature for max-order list changes: (pfn, inserted).
MaxOrderListener = Callable[[int, bool], None]


class BuddyAllocator:
    """Buddy allocator over the PFN range ``[base_pfn, base_pfn + n_pages)``.

    Parameters
    ----------
    base_pfn:
        First frame managed by this allocator.  Must be aligned to the
        largest block size so buddy arithmetic works on absolute PFNs.
    n_pages:
        Number of frames managed.
    max_order:
        Largest tracked order (inclusive).  Linux default corresponds to
        4 MiB blocks; eager paging raises this (paper §VI-A).
    sorted_max_order:
        Keep the ``max_order`` list sorted by physical address.
    frames:
        Optional externally owned :class:`FrameTable` (shared with the
        kernel); one is created when omitted.
    """

    def __init__(
        self,
        base_pfn: int,
        n_pages: int,
        max_order: int = DEFAULT_MAX_ORDER,
        sorted_max_order: bool = False,
        frames: FrameTable | None = None,
    ):
        top = order_pages(max_order)
        if not is_aligned(base_pfn, top):
            raise BuddyError(
                f"base_pfn {base_pfn:#x} not aligned to max block ({top} pages)"
            )
        if n_pages <= 0:
            raise BuddyError(f"n_pages must be positive, got {n_pages}")
        self.base_pfn = base_pfn
        self.n_pages = n_pages
        self.max_order = max_order
        self.frames = frames if frames is not None else FrameTable(base_pfn, n_pages)
        self._free_pages = 0
        self._listeners: list[MaxOrderListener] = []
        self._lists: list[_FifoList | _SortedList] = [
            _FifoList() for _ in range(max_order)
        ]
        self._lists.append(_SortedList() if sorted_max_order else _FifoList())
        self._seed_free_lists()

    # -- construction ------------------------------------------------------

    def _seed_free_lists(self) -> None:
        """Carve the managed range into maximal aligned free blocks."""
        pfn = self.base_pfn
        end = self.base_pfn + self.n_pages
        while pfn < end:
            order = min(self.max_order, (pfn & -pfn).bit_length() - 1 if pfn else self.max_order)
            while order_pages(order) > end - pfn:
                order -= 1
            self._insert(pfn, order)
            pfn += order_pages(order)

    # -- listener plumbing ---------------------------------------------------

    def add_max_order_listener(self, listener: MaxOrderListener) -> None:
        """Register a callback fired on max-order list insert/remove."""
        self._listeners.append(listener)

    def _notify(self, pfn: int, inserted: bool) -> None:
        for listener in self._listeners:
            listener(pfn, inserted)

    # -- free-list primitives ------------------------------------------------

    def _insert(self, pfn: int, order: int) -> None:
        self._lists[order].add(pfn)
        self.frames.set_head(pfn, order)
        self._free_pages += order_pages(order)
        if order == self.max_order:
            self._notify(pfn, True)

    def _remove(self, pfn: int, order: int) -> None:
        self._lists[order].remove(pfn)
        self.frames.clear_head(pfn)
        self._free_pages -= order_pages(order)
        if order == self.max_order:
            self._notify(pfn, False)

    # -- queries ---------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        """Total free frames across all lists."""
        return self._free_pages

    @property
    def end_pfn(self) -> int:
        """One past the last managed frame."""
        return self.base_pfn + self.n_pages

    def contains(self, pfn: int) -> bool:
        """True when ``pfn`` is managed by this allocator."""
        return self.base_pfn <= pfn < self.end_pfn

    def free_list_sizes(self) -> list[int]:
        """Number of free blocks per order (diagnostics)."""
        return [len(lst) for lst in self._lists]

    def iter_free_blocks(self, order: int) -> Iterator[int]:
        """Iterate the heads of free blocks of exactly ``order``."""
        return iter(self._lists[order])

    def find_free_block(self, pfn: int) -> tuple[int, int] | None:
        """Locate the free block containing ``pfn``.

        Returns ``(head_pfn, order)`` or ``None`` when the frame is in
        use.  Exploits buddy alignment: the head of any free block
        containing ``pfn`` must sit at an order-aligned address at or
        below it, so only ``max_order + 1`` candidates exist.  (The
        loop reads the ``free_order`` column directly: it runs once per
        targeted claim, which makes it the hot spot of CA readahead.)
        """
        if not self.contains(pfn):
            return None
        free_order = self.frames.free_order
        offset = self.frames.base_pfn
        for order in range(self.max_order + 1):
            head = pfn & -(1 << order)
            if head < self.base_pfn:
                break
            if free_order[head - offset] == order:
                return head, order
        return None

    def is_free(self, pfn: int) -> bool:
        """True when the frame belongs to some free block."""
        return self.find_free_block(pfn) is not None

    # -- allocation ----------------------------------------------------------

    def alloc_block(self, order: int) -> int:
        """Allocate any block of ``2**order`` pages; returns its head PFN.

        Raises :class:`OutOfMemoryError` when no block of that order (or
        larger, to split) is free.
        """
        self._check_order(order)
        for avail in range(order, self.max_order + 1):
            if self._lists[avail]:
                head = self._lists[avail].pop()
                self.frames.clear_head(head)
                self._free_pages -= order_pages(avail)
                if avail == self.max_order:
                    self._notify(head, False)
                return self._split_to(head, avail, order, target=head)
        raise OutOfMemoryError(
            f"no free block of order {order} (free pages: {self._free_pages})"
        )

    def alloc_target(self, pfn: int, order: int) -> bool:
        """Allocate the specific block ``[pfn, pfn + 2**order)`` if free.

        This is the CA paging primitive: the caller computed ``pfn``
        from the VMA offset and wants exactly that frame.  Returns True
        on success; False when the block is (partly) in use.
        """
        self._check_order(order)
        if not is_aligned(pfn, order_pages(order)):
            raise BuddyError(
                f"target pfn {pfn:#x} not aligned for order {order}"
            )
        if pfn + order_pages(order) > self.end_pfn:
            return False
        found = self.find_free_block(pfn)
        if found is None:
            return False
        head, head_order = found
        if head_order < order:
            # The containing free block is smaller than the request; by
            # the coalescing invariant the rest of the range is in use.
            return False
        self._remove(head, head_order)
        self._split_to(head, head_order, order, target=pfn)
        return True

    def alloc_pages_bulk(self, n: int) -> np.ndarray:
        """Allocate up to ``n`` order-0 pages in one batched operation.

        Returns the allocated PFNs as an int64 array, possibly shorter
        than ``n`` when the allocator runs dry (never raises).  The end
        state is *bit-identical* to ``n`` sequential :meth:`alloc_block`
        calls at order 0: sequential splitting hands out the pages of a
        popped block consecutively from its head (each split's freed
        right half is the LIFO top of its list), and the surviving tail
        of a partially consumed block is the unique greedy buddy
        decomposition of that tail from its low end.  Survivor orders
        are strictly increasing, so at most one survivor lands in each
        free list — the per-list LIFO order relative to pre-existing
        blocks is preserved no matter the insertion sequence.  Survivors
        are always below ``max_order``, so the only listener events are
        the pop-side removals, exactly as in the sequential path.
        """
        out = np.empty(n, dtype=np.int64)
        got = 0
        while got < n:
            for avail in range(self.max_order + 1):
                if self._lists[avail]:
                    break
            else:
                return out[:got]
            head = self._lists[avail].pop()
            self.frames.clear_head(head)
            self._free_pages -= order_pages(avail)
            if avail == self.max_order:
                self._notify(head, False)
            block_pages = order_pages(avail)
            take = min(n - got, block_pages)
            out[got : got + take] = np.arange(head, head + take, dtype=np.int64)
            self.frames.mark_allocated_run(head, take)
            got += take
            self._insert_greedy(head + take, head + block_pages)
        return out

    def alloc_target_run(self, pfn: int, n: int) -> int:
        """Claim the longest free prefix of ``[pfn, pfn + n)`` as order-0 pages.

        Returns the number of pages claimed: 0 when ``pfn`` is in use or
        unmanaged, and never past :attr:`end_pfn`.  The end state is
        *identical* to that many sequential ``alloc_target(pfn + i, 0)``
        calls (the first failing call changes nothing).  The claim walks
        the free blocks it covers in address order; each is removed once
        (firing the same max-order listener events in the same order),
        and only the first can start below ``pfn``, only the last can
        reach past the claim.  Sequentially, the first call splits that
        first block and leaves its left remnant ``[head, pfn)`` as the
        greedy buddy decomposition from ``head`` (orders strictly
        decreasing); each later call takes the head of the smallest
        right half left by the previous split, so what survives of the
        last block is the greedy decomposition of the tail after the
        claim (orders strictly increasing).  Each free list therefore
        gets at most one block from each side, the left one inserted
        first (at the first call) — the order used here — so every
        list's FIFO order matches.  Remnants are strictly smaller than
        their block, so none lands in the max-order list.
        """
        start = pfn
        end = min(pfn + n, self.end_pfn)
        while pfn < end:
            found = self.find_free_block(pfn)
            if found is None:
                break
            head, order = found
            block_end = head + order_pages(order)
            stop = min(end, block_end)
            self._remove(head, order)
            self._insert_greedy(head, pfn)
            self.frames.mark_allocated_run(pfn, stop - pfn)
            self._insert_greedy(stop, block_end)
            pfn = stop
        return pfn - start

    def _insert_greedy(self, pfn: int, end: int) -> None:
        """Insert ``[pfn, end)`` into the free lists as its greedy buddy
        decomposition from the low end.  The caller guarantees the range
        lies inside one block it just removed, so no coalescing is due."""
        while pfn < end:
            align = (pfn & -pfn).bit_length() - 1 if pfn else self.max_order
            order = min(align, (end - pfn).bit_length() - 1)
            self._insert(pfn, order)
            pfn += order_pages(order)

    def _split_to(self, head: int, order: int, want: int, target: int) -> int:
        """Split block ``(head, order)`` down to ``want``, keeping ``target``.

        The half not containing ``target`` is freed at each step.  The
        final block (headed at ``target``) is marked allocated and its
        head PFN returned.
        """
        while order > want:
            order -= 1
            half = order_pages(order)
            left, right = head, head + half
            if target >= right:
                self._insert(left, order)
                head = right
            else:
                self._insert(right, order)
                head = left
        self.frames.mark_allocated(head, order_pages(want))
        return head

    # -- freeing ---------------------------------------------------------------

    def free_block(self, pfn: int, order: int) -> None:
        """Free the block ``[pfn, pfn + 2**order)``, coalescing buddies."""
        self._check_order(order)
        if not is_aligned(pfn, order_pages(order)):
            raise BuddyError(f"freeing misaligned pfn {pfn:#x} at order {order}")
        if not self.contains(pfn) or pfn + order_pages(order) > self.end_pfn:
            raise BuddyError(f"freeing pfn {pfn:#x} outside managed range")
        if self.find_free_block(pfn) is not None:
            raise BuddyError(f"double free of pfn {pfn:#x} (order {order})")
        self.frames.mark_free(pfn, order_pages(order))
        while order < self.max_order:
            buddy = pfn ^ order_pages(order)
            if not self.contains(buddy) or self.frames.head_order(buddy) != order:
                break
            self._remove(buddy, order)
            pfn = min(pfn, buddy)
            order += 1
        self._insert(pfn, order)

    # -- helpers -----------------------------------------------------------------

    def _check_order(self, order: int) -> None:
        if not 0 <= order <= self.max_order:
            raise BuddyError(
                f"order {order} outside [0, {self.max_order}]"
            )
