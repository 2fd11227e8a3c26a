"""A memory zone: one NUMA node's buddy allocator + contiguity map.

Linux maintains one buddy instance per NUMA node (``struct zone``) and
CA paging mirrors that with one ``contiguity_map`` per node (paper
§III-B).  The zone glues the two together and offers the allocation
entry points the kernel uses.
"""

from __future__ import annotations

from repro.mm.buddy import BuddyAllocator
from repro.mm.contiguity_map import Cluster, ContiguityMap
from repro.mm.frame import FrameTable
from repro.units import DEFAULT_MAX_ORDER


class Zone:
    """One NUMA node of physical memory.

    Parameters
    ----------
    node_id:
        NUMA node number (0-based).
    base_pfn / n_pages:
        Frame range owned by this node.
    max_order:
        Buddy MAX_ORDER (raised by the eager-paging baseline).
    sorted_max_order:
        Keep the MAX_ORDER list physically sorted (CA paging's
        fragmentation-restraint optimization).
    """

    def __init__(
        self,
        node_id: int,
        base_pfn: int,
        n_pages: int,
        max_order: int = DEFAULT_MAX_ORDER,
        sorted_max_order: bool = False,
    ):
        self.node_id = node_id
        self.frames = FrameTable(base_pfn, n_pages)
        self.buddy = BuddyAllocator(
            base_pfn,
            n_pages,
            max_order=max_order,
            sorted_max_order=sorted_max_order,
            frames=self.frames,
        )
        self.contiguity_map = ContiguityMap(max_order)
        # Replay the seed blocks into the map, then subscribe for updates.
        for head in list(self.buddy.iter_free_blocks(max_order)):
            self.contiguity_map.on_max_order_event(head, True)
        self.buddy.add_max_order_listener(self.contiguity_map.on_max_order_event)

    # -- delegation -----------------------------------------------------------

    @property
    def base_pfn(self) -> int:
        """First frame of the node."""
        return self.buddy.base_pfn

    @property
    def end_pfn(self) -> int:
        """One past the last frame of the node."""
        return self.buddy.end_pfn

    @property
    def n_pages(self) -> int:
        """Total frames owned by the node."""
        return self.buddy.n_pages

    @property
    def free_pages(self) -> int:
        """Free frames on the node."""
        return self.buddy.free_pages

    @property
    def max_order(self) -> int:
        """Buddy MAX_ORDER of the node."""
        return self.buddy.max_order

    def contains(self, pfn: int) -> bool:
        """True when ``pfn`` belongs to this node."""
        return self.buddy.contains(pfn)

    def alloc_block(self, order: int) -> int:
        """Allocate any block of the given order from this node."""
        return self.buddy.alloc_block(order)

    def alloc_pages_bulk(self, n: int):
        """Allocate up to ``n`` order-0 pages at once (may return short)."""
        return self.buddy.alloc_pages_bulk(n)

    def alloc_target(self, pfn: int, order: int) -> bool:
        """Allocate the specific block at ``pfn`` if it is entirely free."""
        return self.buddy.alloc_target(pfn, order)

    def alloc_target_run(self, pfn: int, n: int) -> int:
        """Claim the free prefix of ``[pfn, pfn + n)`` as order-0 pages,
        stopping at the node end; returns the number claimed."""
        return self.buddy.alloc_target_run(pfn, n)

    def free_block(self, pfn: int, order: int) -> None:
        """Free a block previously returned by this node."""
        self.buddy.free_block(pfn, order)

    def free_span(self, pfn: int, n_pages: int) -> None:
        """Free an allocated stretch of frames as its aligned blocks."""
        self.buddy.free_span(pfn, n_pages)

    def is_free(self, pfn: int) -> bool:
        """True when the frame is inside a free buddy block."""
        return self.buddy.is_free(pfn)

    def place(self, request_pages: int, policy: str = "next_fit") -> Cluster | None:
        """Run a placement decision on the node's contiguity map."""
        search = getattr(self.contiguity_map, policy)
        return search(request_pages)

    def largest_cluster_pages(self) -> int:
        """Size of the largest free cluster, in pages (0 when none)."""
        largest = self.contiguity_map.largest()
        return largest.n_pages if largest else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Zone(node={self.node_id}, pfn=[{self.base_pfn:#x},{self.end_pfn:#x}),"
            f" free={self.free_pages}/{self.n_pages})"
        )
