"""Machine-level physical memory: the set of NUMA zones.

Provides zone lookup by PFN, cross-zone allocation with node fallback
(Linux zonelist-like), whole-machine statistics, and the *hog* and
*churn* utilities used to reproduce the paper's fragmentation and
aged-machine conditions.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError, OutOfMemoryError
from repro.mm.zone import Zone
from repro.units import DEFAULT_MAX_ORDER, order_pages  # noqa: F401


class PhysicalMemory:
    """All physical memory of a simulated machine.

    Parameters
    ----------
    node_pages:
        Frames per NUMA node, e.g. ``[2**18, 2**18]`` for two nodes.
    max_order / sorted_max_order:
        Forwarded to every zone.
    """

    def __init__(
        self,
        node_pages: Iterable[int],
        max_order: int = DEFAULT_MAX_ORDER,
        sorted_max_order: bool = False,
    ):
        sizes = list(node_pages)
        if not sizes:
            raise ConfigError("at least one NUMA node is required")
        self.zones: list[Zone] = []
        base = 0
        top = order_pages(max_order)
        for node_id, n_pages in enumerate(sizes):
            if n_pages % top:
                raise ConfigError(
                    f"node {node_id} size {n_pages} not a multiple of the "
                    f"max block ({top} pages)"
                )
            self.zones.append(
                Zone(
                    node_id,
                    base,
                    n_pages,
                    max_order=max_order,
                    sorted_max_order=sorted_max_order,
                )
            )
            base += n_pages

    # -- lookup -----------------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Total frames in the machine."""
        return sum(z.n_pages for z in self.zones)

    @property
    def free_pages(self) -> int:
        """Total free frames in the machine."""
        return sum(z.free_pages for z in self.zones)

    @property
    def max_order(self) -> int:
        """Buddy MAX_ORDER (identical across zones)."""
        return self.zones[0].max_order

    def zone_of(self, pfn: int) -> Zone:
        """The zone owning ``pfn``."""
        for zone in self.zones:
            if zone.contains(pfn):
                return zone
        raise IndexError(f"pfn {pfn:#x} outside all zones")

    def iter_zones_from(self, preferred: int) -> Iterator[Zone]:
        """Zones starting at the preferred node, then in node order."""
        n = len(self.zones)
        for step in range(n):
            yield self.zones[(preferred + step) % n]

    # -- allocation with node fallback -------------------------------------

    def alloc_block(self, order: int, preferred_node: int = 0) -> int:
        """Allocate from the preferred node, falling back across nodes."""
        for zone in self.iter_zones_from(preferred_node):
            try:
                return zone.alloc_block(order)
            except OutOfMemoryError:
                continue
        raise OutOfMemoryError(
            f"no node can satisfy an order-{order} allocation"
        )

    def alloc_pages_bulk(self, n: int, preferred_node: int = 0):
        """Allocate up to ``n`` order-0 pages, draining nodes in order.

        Mirrors ``n`` calls to :meth:`alloc_block` at order 0: the
        preferred node is consumed until dry, then the next node in the
        fallback order, and so on.  Returns an int64 PFN array that may
        be shorter than ``n`` when the whole machine runs out.
        """
        parts = []
        remaining = n
        for zone in self.iter_zones_from(preferred_node):
            if remaining <= 0:
                break
            got = zone.alloc_pages_bulk(remaining)
            if len(got):
                parts.append(got)
                remaining -= len(got)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def alloc_target(self, pfn: int, order: int) -> bool:
        """Targeted allocation; routes to the owning zone."""
        return self.zone_of(pfn).alloc_target(pfn, order)

    def alloc_target_run(self, pfn: int, n: int) -> int:
        """Targeted order-0 run claim; routes to the zone owning ``pfn``
        and stops at that zone's end (see
        :meth:`BuddyAllocator.alloc_target_run`)."""
        return self.zone_of(pfn).alloc_target_run(pfn, n)

    def free_block(self, pfn: int, order: int) -> None:
        """Free a block; routes to the owning zone."""
        self.zone_of(pfn).free_block(pfn, order)

    def is_free(self, pfn: int) -> bool:
        """True when the frame is inside a free buddy block."""
        zone = self.zone_of(pfn)
        return zone.is_free(pfn)

    # -- machine-aging utilities -----------------------------------------------

    def churn(self, ops: int, rng: random.Random, max_block_order: int = 6) -> None:
        """Randomize free-list ordering like an aged machine.

        Allocates and frees random small blocks so the LIFO free lists
        lose their boot-time address ordering.  Memory fully coalesces
        back afterwards, so free *contiguity* is preserved — only the
        order in which the default allocator hands out blocks becomes
        arbitrary, which is exactly the behaviour that inhibits
        contiguity under demand paging (paper §III-B).
        """
        held: list[tuple[int, int]] = []
        for _ in range(ops):
            if held and rng.random() < 0.5:
                i = rng.randrange(len(held))
                pfn, order = held.pop(i)
                self.free_block(pfn, order)
            else:
                order = rng.randint(0, max_block_order)
                node = rng.randrange(len(self.zones))
                try:
                    held.append((self.alloc_block(order, node), order))
                except OutOfMemoryError:
                    continue
        rng.shuffle(held)
        for pfn, order in held:
            self.free_block(pfn, order)

    def hog(
        self,
        fraction: float,
        rng: random.Random,
        block_order: int | None = None,
    ) -> list[tuple[int, int]]:
        """Fragment physical memory like the paper's hog microbenchmark.

        Pins ``fraction`` of total memory in randomly chosen blocks of
        ``block_order`` (default: MAX_ORDER, i.e. >2 MiB granularity as
        in the paper, so plenty of free 2 MiB pages remain).  Returns
        the pinned blocks so callers can release them later.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigError(f"hog fraction must be in [0, 1), got {fraction}")
        order = self.max_order if block_order is None else block_order
        goal = int(self.n_pages * fraction)
        pinned: list[tuple[int, int]] = []
        pinned_pages = 0
        attempts = 0
        while pinned_pages < goal and attempts < goal * 4:
            attempts += 1
            zone = rng.choice(self.zones)
            target = rng.randrange(
                zone.base_pfn, zone.end_pfn, order_pages(order)
            )
            if zone.alloc_target(target, order):
                pinned.append((target, order))
                pinned_pages += order_pages(order)
        return pinned

    def boot_reserve(
        self,
        fraction: float,
        rng: random.Random,
        scatter_blocks_per_node: int = 3,
    ) -> list[tuple[int, int]]:
        """Pin boot-time kernel memory the way a real machine does.

        Most of the reserve sits contiguously at the *bottom* of each
        node (kernel text, initrd, early allocations), leaving the bulk
        of the node as one giant free cluster; a few max-order blocks
        are pinned at random higher addresses (long-lived daemons).
        This is the boot state under which CA paging's placement finds
        VMA-sized clusters, like the paper's test machine.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigError(f"reserve fraction must be in [0, 1), got {fraction}")
        pinned: list[tuple[int, int]] = []
        # Pin at the stock kernel granularity even on raised-MAX_ORDER
        # machines (boot allocations do not grow with the patch).
        order = min(DEFAULT_MAX_ORDER, self.max_order)
        block = order_pages(order)
        for zone in self.zones:
            low_pages = int(zone.n_pages * fraction * 0.7)
            pfn = zone.base_pfn
            while low_pages >= block:
                if zone.alloc_target(pfn, order):
                    pinned.append((pfn, order))
                low_pages -= block
                pfn += block
            for _ in range(scatter_blocks_per_node):
                target = rng.randrange(zone.base_pfn, zone.end_pfn, block)
                if zone.alloc_target(target, order):
                    pinned.append((target, order))
        return pinned

    def release(self, blocks: Iterable[tuple[int, int]]) -> None:
        """Free blocks previously returned by :meth:`hog`."""
        for pfn, order in blocks:
            self.free_block(pfn, order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalMemory({len(self.zones)} zones, {self.n_pages} pages)"
