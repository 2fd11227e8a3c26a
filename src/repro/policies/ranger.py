"""Translation Ranger: asynchronous defragmentation by page migration.

Ranger (ISCA'19) leaves the allocation path untouched (default THP
placement) and instead runs a periodic daemon that *coalesces* each
process's footprint after the fact: it picks a large free physical
region (the anchor) and migrates the process's pages into it so that
``vpn − pfn`` becomes a single offset.

Properties the experiments reproduce:

- contiguity arrives *late* (Fig. 1c): each epoch migrates a bounded
  number of pages, so a footprint coalesces over several epochs while
  CA paging has contiguity at allocation time;
- migrations have a cost (Fig. 11 shows ~3% runtime overhead), charged
  via ``stats.migrations``;
- robustness to fragmentation (Fig. 8): migration can harvest space
  that allocation-time policies no longer can;
- the multi-programmed weakness (Fig. 10): processes are scanned
  serially, and with several processes the same anchors get contended.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.base import FaultContext, PlacementPolicy
from repro.units import order_pages

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class RangerPaging(PlacementPolicy):
    """Default placement + periodic coalescing migrations."""

    name = "ranger"

    def __init__(self, migrations_per_epoch: int = 16384,
                 move_page_cache: bool = False):
        super().__init__()
        if migrations_per_epoch <= 0:
            raise ValueError("migrations_per_epoch must be positive")
        self.migrations_per_epoch = migrations_per_epoch
        #: Also claim and relocate page-cache frames.  Real Ranger does
        #: this; in this emulation the blind relocation destinations
        #: make it converge worse than plain same-process exchange, so
        #: it is an opt-in ablation (see EXPERIMENTS.md).
        self.move_page_cache = move_page_cache
        #: (pid, vma start) -> [(from_vpn, offset)] anchor plan, sorted
        #: by from_vpn.  Carved once per VMA from the free clusters
        #: (best-fit decreasing); epochs then migrate toward it.
        self._anchors: dict[tuple[int, int], list[tuple[int, int]]] = {}
        #: pid -> spans not yet assigned to a VMA plan (shared pool so
        #: the plans of one process's VMAs never overlap).
        self._span_pool: dict[int, list[tuple[int, int]]] = {}

    def allocate(self, ctx: FaultContext) -> tuple[int, int]:
        return self._default_alloc(ctx.order, ctx.preferred_node)

    # -- the defragmentation daemon -------------------------------------------

    def tick(self, kernel: "Kernel") -> None:
        """One defragmentation epoch: migrate up to the per-epoch budget."""
        budget = self.migrations_per_epoch
        for process in kernel.iter_processes():
            for vma in list(process.space.iter_vmas()):
                if budget <= 0:
                    return
                budget = self._coalesce_vma(kernel, process, vma, budget)

    def _coalesce_vma(self, kernel, process, vma, budget: int) -> int:
        space = process.space
        anchors = self._anchor_plan(kernel, process, vma)
        if not anchors:
            return budget
        vpn = vma.start_vpn
        while budget > 0:
            # A fresh descent per leaf: migrations and exchanges remap
            # leaves ahead of the cursor.
            walk = space.page_table.next_leaf(vpn, vma.end_vpn)
            if walk is None:
                break
            pages = order_pages(walk.pte.order)
            offset = self._offset_for(anchors, walk.base_vpn)
            desired = walk.base_vpn - offset
            if walk.pte.pfn != desired and desired >= 0:
                if kernel.migrate(
                    process, vma, walk.base_vpn, desired, walk.pte.order
                ):
                    self.stats.migrations += pages
                    budget -= pages
                elif self._exchange(kernel, process, walk.base_vpn, desired):
                    self.stats.migrations += 2 * pages
                    budget -= 2 * pages
            vpn = walk.base_vpn + pages
        return budget

    def _anchor_plan(self, kernel, process, vma) -> list[tuple[int, int]]:
        """Carve the VMA's anchor segments once from *movable* spans.

        Ranger anchors contiguous PFN ranges regardless of current
        occupancy — anything movable (mapped pages, free frames) can be
        migrated or exchanged out of the way; only pinned frames
        (kernel reserve, hog pins) break a span.  Largest spans take
        the longest virtual ranges (best-fit decreasing).
        """
        key = (process.pid, vma.start_vpn)
        plan = self._anchors.get(key)
        if plan is not None:
            return plan
        pool = self._span_pool.get(process.pid)
        if pool is None:
            pool = sorted(
                self._claimable_spans(kernel, process),
                key=lambda s: s[1],
                reverse=True,
            )
            self._span_pool[process.pid] = pool
        plan = []
        vpn = vma.start_vpn
        remaining = vma.n_pages
        while remaining > 0 and pool:
            start_pfn, n_pages = pool.pop(0)
            span = min(remaining, n_pages)
            plan.append((vpn, vpn - start_pfn))
            if n_pages > span:
                # Return the unused tail to the pool, keeping it sorted.
                tail = (start_pfn + span, n_pages - span)
                i = 0
                while i < len(pool) and pool[i][1] > tail[1]:
                    i += 1
                pool.insert(i, tail)
            vpn += span
            remaining -= span
        self._anchors[key] = plan
        return plan

    def _claimable_spans(self, kernel, process) -> list[tuple[int, int]]:
        """Maximal PFN ranges the process's footprint can coalesce into.

        A frame is claimable when it is free, already holds one of this
        process's own pages (those swap within the span), or holds a
        page-cache page (movable: the kernel relocates it on demand);
        frames pinned by the kernel or other processes break a span.
        Spans are trimmed to 2 MiB boundaries so huge leaves keep
        their alignment.
        """
        import numpy as np

        from repro.units import HUGE_PAGES, align_up

        assert self.mem is not None
        cache_frames = (
            sorted(kernel.page_cache.frame_owner) if self.move_page_cache else []
        )
        spans: list[tuple[int, int]] = []
        for zone in self.mem.zones:
            frames = zone.frames
            claimable = frames.refcount == 0
            for run in process.space.runs:
                lo = max(run.start_pfn, zone.base_pfn) - zone.base_pfn
                hi = min(run.end_pfn, zone.end_pfn) - zone.base_pfn
                if hi > lo:
                    claimable[lo:hi] = True
            for pfn in cache_frames:
                if zone.base_pfn <= pfn < zone.end_pfn:
                    claimable[pfn - zone.base_pfn] = True
            padded = np.concatenate(([False], claimable, [False]))
            edges = np.flatnonzero(padded[1:] != padded[:-1])
            for lo, hi in zip(edges[::2], edges[1::2]):
                start = align_up(zone.base_pfn + int(lo), HUGE_PAGES)
                end = (zone.base_pfn + int(hi)) & ~(HUGE_PAGES - 1)
                if end > start:
                    spans.append((start, end - start))
        return spans

    def _exchange(self, kernel, process, vpn: int, desired_pfn: int) -> bool:
        """Clear the desired frame: equal-order swap with the process's
        own page, or relocate page-cache pages out of the block."""
        owner_vpn = kernel.owner_vpn_of_frame(process, desired_pfn)
        if owner_vpn is not None:
            return kernel.swap_mappings(process, vpn, owner_vpn)
        if not self.move_page_cache:
            return False
        walk = process.space.page_table.walk(vpn)
        if not walk.hit:
            return False
        pages = order_pages(walk.pte.order)
        moved = 0
        avoid = self._in_plan_checker(process)
        for frame in range(desired_pfn, desired_pfn + pages):
            if frame in kernel.page_cache.frame_owner:
                if not kernel.relocate_cache_page(frame, avoid=avoid):
                    return False
                moved += 1
        if not moved:
            return False
        self.stats.migrations += moved
        vma = process.space.vma_at(vpn)
        return vma is not None and kernel.migrate(
            process, vma, walk.base_vpn, desired_pfn, walk.pte.order
        )

    def _in_plan_checker(self, process):
        """Predicate: does a frame fall inside the process's plan bands?"""
        bands: list[tuple[int, int]] = []
        for (pid, vma_start), plan in self._anchors.items():
            if pid != process.pid:
                continue
            vma = process.space.vma_at(vma_start)
            end_vpn = vma.end_vpn if vma else vma_start
            for i, (from_vpn, offset) in enumerate(plan):
                until = plan[i + 1][0] if i + 1 < len(plan) else end_vpn
                bands.append((from_vpn - offset, until - offset))

        def check(pfn: int) -> bool:
            return any(lo <= pfn < hi for lo, hi in bands)

        return check

    @staticmethod
    def _offset_for(anchors: list[tuple[int, int]], vpn: int) -> int:
        """Offset of the last anchor at or before ``vpn``."""
        chosen = anchors[0][1]
        for from_vpn, offset in anchors:
            if from_vpn <= vpn:
                chosen = offset
            else:
                break
        return chosen

    def forget(self, process) -> None:
        """Drop anchors of an exited process."""
        self._anchors = {
            key: off for key, off in self._anchors.items() if key[0] != process.pid
        }
        self._span_pool.pop(process.pid, None)
