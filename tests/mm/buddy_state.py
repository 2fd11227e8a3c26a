"""Full observable state of a buddy allocator, for batched-vs-sequential tests.

Free-list *sizes* are not enough to call two allocators identical: the
FIFO lists pop their most recently inserted block first, so a batched
path that inserts the same blocks in another order hands out different
frames on every later ``alloc_block``.  :func:`buddy_state` captures
every list's contents in order plus the per-frame columns the allocator
writes.
"""

from __future__ import annotations


def buddy_state(buddy) -> tuple:
    """Free lists in order, ``free_pages`` and the frame columns."""
    frames = buddy.frames
    return (
        [list(buddy.iter_free_blocks(order)) for order in range(buddy.max_order + 1)],
        buddy.free_pages,
        frames.free_order.tolist(),
        frames.alloc_order.tolist(),
        frames.refcount.tolist(),
    )


def machine_state(mem) -> list[tuple]:
    """:func:`buddy_state` of every zone, plus the mapping columns."""
    return [
        buddy_state(zone.buddy)
        + (zone.frames.mapcount.tolist(), zone.frames.owner.tolist())
        for zone in mem.zones
    ]
