"""Placement-policy interface and the default (Linux-like) fallback path.

A policy answers one question on every anonymous/COW/page-cache fault:
*which physical frames back this virtual region?*  The kernel handles
everything else (VMA lookup, page-table installation, contiguity-bit
maintenance, statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import OutOfMemoryError
from repro.vm.address_space import AddressSpace
from repro.vm.page_cache import CachedFile
from repro.vm.vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from repro.mm.physmem import PhysicalMemory
    from repro.sim.kernel import Kernel

#: Shared "nothing claimed" return for :meth:`PlacementPolicy.on_fault_batch`.
_EMPTY_PFNS = np.empty(0, dtype=np.int64)


@dataclass
class FaultContext:
    """Everything a policy may inspect when placing a fault."""

    space: AddressSpace
    vma: Vma
    #: Base VPN of the faulting region (huge-aligned for a 2 MiB fault).
    vpn: int
    #: Requested order: 0 (4 KiB) or HUGE_ORDER (2 MiB).
    order: int
    write: bool = True
    preferred_node: int = 0
    #: True when this is a copy-on-write break rather than a first touch.
    cow: bool = False


@dataclass
class PolicyStats:
    """Counters every policy maintains (read by the overhead model)."""

    allocations: int = 0
    targeted_hits: int = 0
    targeted_misses: int = 0
    placements: int = 0
    fallbacks: int = 0
    migrations: int = 0
    promoted_huge_pages: int = 0
    #: Pages zeroed per allocation event (drives the latency model).
    zeroed_pages_per_event: list[int] = field(default_factory=list)


class PlacementPolicy:
    """Base class: stock demand-paging placement (first free block)."""

    #: Short identifier used in results tables.
    name = "base"
    #: True when the policy backs whole VMAs at mmap time (eager paging).
    prefaults = False

    def __init__(self) -> None:
        self.mem: "PhysicalMemory | None" = None
        self.stats = PolicyStats()
        #: Installed by the kernel: ``oom_reclaim(n_pages) -> freed``
        #: evicts page-cache pages under memory pressure.
        self.oom_reclaim = None

    # -- lifecycle ---------------------------------------------------------

    def bind(self, mem: "PhysicalMemory") -> None:
        """Attach the policy to a machine's physical memory."""
        self.mem = mem

    def on_mmap(self, space: AddressSpace, vma: Vma) -> list[tuple[int, int, int]]:
        """Hook called after VMA creation.

        Returns ``(vpn, pfn, order)`` blocks to install eagerly (empty
        for demand-paging policies).
        """
        return []

    def on_munmap(self, space: AddressSpace, vma: Vma) -> None:
        """Hook called before a VMA is torn down."""

    def tick(self, kernel: "Kernel") -> None:
        """Periodic hook for asynchronous daemons (Ingens, Ranger)."""

    # -- the allocation entry points ------------------------------------------

    def allocate(self, ctx: FaultContext) -> tuple[int, int]:
        """Place one fault; returns ``(pfn, granted_order)``.

        The granted order may be lower than requested when the policy
        (or memory pressure) downgrades a huge fault to a base page.
        """
        return self._default_alloc(ctx.order, ctx.preferred_node)

    def allocate_file(self, file: CachedFile, index: int, n_pages: int) -> list[int]:
        """Place a page-cache readahead window; returns one PFN per page.

        One bulk buddy grab, which ends in the same state as ``n_pages``
        :meth:`_default_alloc` calls at order 0.  When the machine runs
        dry the rest goes page by page through :meth:`_default_alloc`,
        which owns the OOM / reclaim path.
        """
        pfns = self._bulk_alloc_accounted(n_pages, 0).tolist()
        while len(pfns) < n_pages:
            pfns.append(self._default_alloc(0, 0)[0])
        return pfns

    def on_fault_batch(self, ctx: FaultContext, vpns) -> "np.ndarray":
        """Batch-place order-0 faults for the ``fast`` span fault path.

        ``vpns`` is an ascending int64 array of unmapped base VPNs; the
        policy may claim any *prefix* of it and must return the matching
        int64 PFN array (``pfns[i]`` backs ``vpns[i]``).  Contract:

        - never raise — on pressure or a placement miss, stop claiming
          and return what was claimed so far (possibly empty); the
          kernel re-drives unclaimed pages through :meth:`allocate`,
          which owns the OOM / reclaim / miss-accounting semantics;
        - claimed pages must be plain (non-placement) order-0 grants
          with per-fault accounting already applied, exactly as ``len``
          calls to :meth:`allocate` would have produced: the kernel
          charges each the base non-placed fault latency;
        - ``ctx.vpn`` equals ``vpns[0]`` and ``ctx.order`` is 0.

        The default claims nothing, which routes every fault through
        the scalar :meth:`allocate` path.
        """
        return _EMPTY_PFNS

    def _bulk_alloc_accounted(self, n: int, preferred_node: int) -> "np.ndarray":
        """Bulk order-0 grab with the same accounting as ``n`` plain
        :meth:`allocate` calls (one allocation + one zeroed page each)."""
        assert self.mem is not None, "policy not bound to a machine"
        pfns = self.mem.alloc_pages_bulk(n, preferred_node)
        got = len(pfns)
        if got:
            self.stats.allocations += got
            self.stats.zeroed_pages_per_event.extend([1] * got)
        return pfns

    # -- shared helpers -----------------------------------------------------------

    def _default_alloc(self, order: int, preferred_node: int) -> tuple[int, int]:
        """Linux-like fallback: first free block, downgrade huge on OOM,
        reclaim page cache as the last resort."""
        assert self.mem is not None, "policy not bound to a machine"
        self.stats.allocations += 1
        try:
            pfn = self.mem.alloc_block(order, preferred_node)
            self._note_zeroing(order)
            return pfn, order
        except OutOfMemoryError:
            if order > 0:
                self.stats.fallbacks += 1
                return self._alloc_base_with_reclaim(preferred_node), 0
            self._reclaim(1)
            return self._alloc_base_with_reclaim(preferred_node), 0

    def _alloc_base_with_reclaim(self, preferred_node: int) -> int:
        assert self.mem is not None
        try:
            pfn = self.mem.alloc_block(0, preferred_node)
        except OutOfMemoryError:
            self._reclaim(1)
            pfn = self.mem.alloc_block(0, preferred_node)
        self._note_zeroing(0)
        return pfn

    def _reclaim(self, n_pages: int) -> None:
        """Evict page cache under pressure (direct-reclaim analogue)."""
        if self.oom_reclaim is None:
            return
        self.oom_reclaim(n_pages)

    def _try_target(self, pfn: int, order: int) -> bool:
        """Targeted allocation with hit/miss accounting."""
        assert self.mem is not None, "policy not bound to a machine"
        if pfn < 0 or not self._target_in_range(pfn, order):
            self.stats.targeted_misses += 1
            return False
        if self.mem.alloc_target(pfn, order):
            self.stats.allocations += 1
            self.stats.targeted_hits += 1
            self._note_zeroing(order)
            return True
        self.stats.targeted_misses += 1
        return False

    def _target_in_range(self, pfn: int, order: int) -> bool:
        assert self.mem is not None
        try:
            zone = self.mem.zone_of(pfn)
        except IndexError:
            return False
        return pfn + (1 << order) <= zone.end_pfn

    def _note_zeroing(self, order: int) -> None:
        self.stats.zeroed_pages_per_event.append(1 << order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
