"""Ingens-style asynchronous huge-page management.

Ingens (OSDI'16) decouples huge-page promotion from the fault path:
faults are served with base pages, and a background thread promotes a
2 MiB region to a huge page only once its *utilization* (fraction of
its 512 base pages actually touched) crosses a threshold (90% in the
paper).  Promotion allocates a fresh huge block and migrates the
resident base pages into it.

Consequences the experiments reproduce:

- contiguity is still capped at 2 MiB, so Ingens tracks default THP in
  Figs. 7/8/12,
- bloat is *lower* than THP (Table VI) because sparsely used regions
  are never promoted,
- promotions cost migrations, visible in the software-overhead model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import OutOfMemoryError
from repro.policies.base import FaultContext, PlacementPolicy
from repro.units import HUGE_ORDER, HUGE_PAGES

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

#: Fraction of a 2 MiB region that must be resident before promotion.
DEFAULT_UTIL_THRESHOLD = 0.9


class IngensPaging(PlacementPolicy):
    """Base pages on the fault path + async utilization-based promotion."""

    name = "ingens"

    def __init__(self, util_threshold: float = DEFAULT_UTIL_THRESHOLD):
        super().__init__()
        if not 0.0 < util_threshold <= 1.0:
            raise ValueError(f"util_threshold must be in (0, 1], got {util_threshold}")
        self.util_threshold = util_threshold
        # Ingens' utilization tracking: base-page fault counts per
        # (address space, 2M region), maintained on the fault path so
        # the daemon never scans whole footprints.
        self._util: dict[tuple[int, int], int] = {}

    def allocate(self, ctx: FaultContext) -> tuple[int, int]:
        """Serve every fault with a base page (no sync huge faults)."""
        region = ctx.vpn - ctx.vpn % HUGE_PAGES
        key = (id(ctx.space), region)
        self._util[key] = self._util.get(key, 0) + 1
        return self._default_alloc(0, ctx.preferred_node)

    def on_fault_batch(self, ctx: FaultContext, vpns):
        """Span fault path: bulk base-page grab + array-reduced util counts.

        ``np.unique`` on the ascending VPN batch yields regions in
        first-fault order, so ``_util``'s dict insertion order — which
        the promotion pass observes — matches the scalar path exactly.
        """
        pfns = self._bulk_alloc_accounted(len(vpns), ctx.preferred_node)
        got = len(pfns)
        if got:
            regions, counts = np.unique(
                vpns[:got] - vpns[:got] % HUGE_PAGES, return_counts=True
            )
            space_id = id(ctx.space)
            util = self._util
            for region, count in zip(regions.tolist(), counts.tolist()):
                key = (space_id, region)
                util[key] = util.get(key, 0) + count
        return pfns

    def tick(self, kernel: "Kernel") -> None:
        """Background promotion pass (called periodically by the kernel)."""
        need = int(self.util_threshold * HUGE_PAGES)
        candidates = [key for key, count in self._util.items() if count >= need]
        for key in candidates:
            space_id, region = key
            promoted = self._consider_region(kernel, space_id, region)
            if promoted:
                del self._util[key]

    # -- promotion ---------------------------------------------------------

    def _consider_region(self, kernel: "Kernel", space_id: int, region: int) -> bool:
        for process in kernel.iter_processes():
            if id(process.space) != space_id:
                continue
            vma = process.space.vma_at(region)
            if vma is None or region + HUGE_PAGES > vma.end_vpn:
                return True  # stale candidate: drop it
            walk = process.space.page_table.walk(region)
            if walk.hit and walk.pte.huge:
                return True  # already huge
            if kernel.engine == "fast":
                # The runs mirror the page table exactly, so counting
                # covered pages replaces 512 per-page walks.
                n_resident = process.space.runs.covered_pages(
                    region, region + HUGE_PAGES
                )
            else:
                n_resident = len(self._resident_pages(process.space, region))
            if n_resident >= int(self.util_threshold * HUGE_PAGES):
                self._promote_region(kernel, process, vma, region, n_resident)
                return True
            return False
        return True  # owner exited: drop

    def _resident_pages(self, space, region: int) -> list[int]:
        return [
            vpn
            for vpn in range(region, region + HUGE_PAGES)
            if space.is_mapped(vpn)
        ]

    def _promote_region(self, kernel, process, vma, region: int, n_resident: int) -> None:
        assert self.mem is not None
        try:
            new_pfn = self.mem.alloc_block(HUGE_ORDER, kernel.node_of(process))
        except OutOfMemoryError:
            return
        self.stats.allocations += 1
        self._note_zeroing(HUGE_ORDER)
        kernel.remap_region_huge(process, vma, region, new_pfn)
        self.stats.migrations += n_resident
        self.stats.promoted_huge_pages += 1
