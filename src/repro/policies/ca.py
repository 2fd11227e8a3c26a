"""Contiguity-aware (CA) paging — the paper's software contribution.

The policy keeps demand paging intact but steers every allocation so
that a VMA's pages land physically contiguous:

1. **First fault in a VMA** — a *placement decision*: search the
   contiguity map with the VMA size as key using the next-fit rover,
   allocate the faulting page inside the chosen cluster so the whole
   VMA would fit, and record ``Offset = vpn − pfn`` in the VMA
   (§III-C, Fig. 4).
2. **Later faults** — pick the recorded offset closest (in VA) to the
   faulting address and try the *targeted* allocation ``pfn = vpn −
   offset`` (§III-B, Fig. 2).
3. **Target unavailable** — for a 2 MiB fault, run a re-placement with
   the remaining unmapped VMA size as key and push a new offset (FIFO,
   64 max); for a 4 KiB fault, fall back to the default allocator and
   skip offset tracking (§III-C).
4. **Page cache** — readahead windows are steered with a per-file
   offset in the same way.

Re-placement is guarded by the VMA's atomic flag so concurrent faults
(multithreaded apps) trigger only one placement decision; losers retry
the existing offsets once and then fall back (§III-C).

**Reservation** (the paper's §III-D future work, implemented here as an
option): with ``reserve=True`` every placement decision records the
physical band the VMA intends to grow into, and later placement
searches skip clusters that lie inside another VMA's reservation.  This
shields contiguity when many VMAs compete for scarce free blocks, at
the cost of turning away placements that would have fit.
"""

from __future__ import annotations

import numpy as np

from repro.mm.contiguity_map import Cluster
from repro.policies.base import _EMPTY_PFNS, FaultContext, PlacementPolicy
from repro.units import HUGE_ORDER, align_down, order_pages
from repro.vm.page_cache import CachedFile


class CAPaging(PlacementPolicy):
    """Contiguity-aware paging.

    Parameters
    ----------
    placement:
        Contiguity-map search policy: ``"next_fit"`` (paper default),
        ``"first_fit"`` or ``"best_fit"`` (ablations).
    track_4k_offsets:
        When True, even 4 KiB placement failures trigger re-placement
        (the paper restricts re-placement to huge faults; ablation).
    """

    name = "ca"

    def __init__(
        self,
        placement: str = "next_fit",
        track_4k_offsets: bool = False,
        reserve: bool = False,
    ):
        super().__init__()
        if placement not in ("next_fit", "first_fit", "best_fit"):
            raise ValueError(f"unknown placement policy {placement!r}")
        self.placement = placement
        self.track_4k_offsets = track_4k_offsets
        self.reserve = reserve
        #: vma id -> list of reserved (start_pfn, end_pfn) bands.
        self._reservations: dict[int, list[tuple[int, int]]] = {}

    # -- anonymous / COW faults ---------------------------------------------

    def allocate(self, ctx: FaultContext) -> tuple[int, int]:
        vma = ctx.vma
        offset = vma.pick_offset(ctx.vpn)
        if offset is None:
            # First fault in the VMA: full placement decision.
            placed = self._place(ctx, key_pages=vma.n_pages)
            if placed is not None:
                return placed
            self.stats.fallbacks += 1
            return self._default_alloc(ctx.order, ctx.preferred_node)

        target = ctx.vpn - offset.offset
        if self._order_aligned(target, ctx.order) and self._try_target(target, ctx.order):
            return target, ctx.order

        # Unsuccessful CA allocation (paper §III-C).
        if ctx.order == HUGE_ORDER or self.track_4k_offsets:
            if vma.try_begin_replacement():
                try:
                    placed = self._place(ctx, key_pages=max(vma.unmapped_pages, 1))
                    if placed is not None:
                        return placed
                finally:
                    vma.end_replacement()
            else:
                # A concurrent fault is re-placing: retry the freshest
                # offset once, then fall back (option (ii) in §III-C,
                # collapsed to one retry in this serial emulation).
                retry = vma.pick_offset(ctx.vpn)
                if retry is not offset:
                    target = ctx.vpn - retry.offset
                    if self._order_aligned(target, ctx.order) and self._try_target(
                        target, ctx.order
                    ):
                        return target, ctx.order
        self.stats.fallbacks += 1
        return self._default_alloc(ctx.order, ctx.preferred_node)

    def on_fault_batch(self, ctx: FaultContext, vpns):
        """Span fault path: claim the streak of successful targeted grabs.

        Targets are computed for the whole batch at once (nearest
        recorded offset per fault, same first-minimum tie-break as
        :meth:`Vma.pick_offset`), then claimed in order until the first
        target that is out of range or occupied — that fault and the
        rest of the batch go back through :meth:`allocate`, which owns
        the miss accounting and the re-placement decision.
        """
        vma = ctx.vma
        if not vma.offsets:
            return _EMPTY_PFNS  # first fault: placement decision is scalar
        assert self.mem is not None
        fault_vpns = np.array([o.fault_vpn for o in vma.offsets], dtype=np.int64)
        offs = np.array([o.offset for o in vma.offsets], dtype=np.int64)
        picks = np.abs(vpns[:, None] - fault_vpns[None, :]).argmin(axis=1)
        targets = vpns - offs[picks]
        out = np.empty(len(vpns), dtype=np.int64)
        got = 0
        stats = self.stats
        for target in targets.tolist():
            if (
                target < 0
                or not self._target_in_range(target, 0)
                or not self.mem.alloc_target(target, 0)
            ):
                break  # no accounting here: allocate() re-drives this fault
            stats.allocations += 1
            stats.targeted_hits += 1
            self._note_zeroing(0)
            out[got] = target
            got += 1
        return out[:got]

    # -- page-cache readahead -------------------------------------------------

    def allocate_file(self, file: CachedFile, index: int, n_pages: int) -> list[int]:
        """Steer readahead frames with the per-file offset (§III-C).

        Under one offset the window's targets are consecutive frames, so
        a streak of targeted hits is claimed with one
        :meth:`~repro.mm.physmem.PhysicalMemory.alloc_target_run` call
        and accounted as that many :meth:`_try_target` hits.  The page
        that ends a streak starts the next attempt: a claim of nothing
        is the miss (accounted, then re-placed or defaulted page by
        page); a streak cut at a zone end simply continues in the next
        zone.  The frames and stats match the per-page loop exactly.
        """
        assert self.mem is not None
        stats = self.stats
        pfns: list[int] = []
        while len(pfns) < n_pages:
            idx = index + len(pfns)
            target = -1 if file.ca_offset is None else idx - file.ca_offset
            if target >= 0:
                got = 0
                if self._target_in_range(target, 0):
                    got = self.mem.alloc_target_run(target, n_pages - len(pfns))
                if got:
                    stats.allocations += got
                    stats.targeted_hits += got
                    stats.zeroed_pages_per_event.extend([1] * got)
                    pfns.extend(range(target, target + got))
                    continue
                stats.targeted_misses += 1
            placed = self._place_file(file, idx)
            if placed is None:
                stats.fallbacks += 1
                placed, _ = self._default_alloc(0, 0)
            pfns.append(placed)
        return pfns

    def _place_file(self, file: CachedFile, index: int) -> int | None:
        cluster, zone = self._search(file.n_pages, preferred_node=0)
        if cluster is None:
            return None
        # Files sit at the *tail* of the cluster: anonymous VMA bands
        # grow upward from cluster starts, so tail placement keeps
        # long-lived page-cache pages out of their growth path when a
        # wrapped next-fit search reuses a partially consumed cluster.
        remaining = file.n_pages - index
        target = max(cluster.start_pfn, cluster.end_pfn - remaining)
        if self._try_target(target, 0):
            self.stats.placements += 1
            file.ca_offset = index - target
            return target
        return None

    # -- placement decisions ------------------------------------------------------

    def _place(self, ctx: FaultContext, key_pages: int) -> tuple[int, int] | None:
        """Run a placement decision; returns the allocation or None."""
        cluster, zone = self._search(
            key_pages, ctx.preferred_node, vma_key=id(ctx.vma)
        )
        if cluster is None:
            return None
        target = self._position(
            cluster, wanted_lead=ctx.vpn - ctx.vma.start_vpn, order=ctx.order
        )
        if not self._try_target(target, ctx.order):
            # The cluster shrank between search and allocation (can
            # happen when another VMA raced the same block): fall back.
            return None
        self.stats.placements += 1
        ctx.vma.record_offset(ctx.vpn, ctx.vpn - target)
        if self.reserve:
            offset = ctx.vpn - target
            band_end = min(cluster.end_pfn, ctx.vma.end_vpn - offset)
            self._reservations.setdefault(id(ctx.vma), []).append(
                (target, max(target + (1 << ctx.order), band_end))
            )
        return target, ctx.order

    def on_munmap(self, space, vma) -> None:
        """Release the VMA's reservations (if any)."""
        self._reservations.pop(id(vma), None)

    def _reserved_by_other(self, cluster: Cluster, vma_key: int | None) -> bool:
        """Does the cluster sit inside another VMA's reserved band?"""
        if not self.reserve:
            return False
        for key, bands in self._reservations.items():
            if key == vma_key:
                continue
            for start, end in bands:
                if cluster.start_pfn < end and cluster.end_pfn > start:
                    return True
        return False

    def _search(self, key_pages: int, preferred_node: int,
                vma_key: int | None = None):
        """Search per-node contiguity maps, preferring the local node.

        Next-fit searches run in two passes: first without wrapping the
        rover (across nodes in preference order), so that clusters
        recently handed to other placements are reconsidered only when
        nothing ahead of any rover fits — this is what defers racing
        between VMAs (§III-C).  With reservation enabled, clusters
        inside another VMA's reserved band are skipped (bounded
        retries).
        """
        assert self.mem is not None
        if self.placement == "next_fit":
            for zone in self.mem.iter_zones_from(preferred_node):
                for _ in range(max(1, len(zone.contiguity_map))):
                    cluster = zone.contiguity_map.next_fit(key_pages, wrap=False)
                    if cluster is None:
                        break
                    if not self._reserved_by_other(cluster, vma_key):
                        return cluster, zone
        best: tuple[Cluster, object] | None = None
        for zone in self.mem.iter_zones_from(preferred_node):
            cluster = zone.place(key_pages, policy=self.placement)
            if cluster is None or self._reserved_by_other(cluster, vma_key):
                continue
            if cluster.n_pages >= key_pages:
                return cluster, zone
            if best is None or cluster.n_pages > best[0].n_pages:
                best = (cluster, zone)
        return best if best is not None else (None, None)

    @staticmethod
    def _position(cluster: Cluster, wanted_lead: int, order: int) -> int:
        """Pick the target frame inside a cluster.

        Ideally the VMA start aligns with the cluster start so the whole
        area fits (``target = start + lead``).  When the cluster cannot
        hold the lead, the faulting page goes to the cluster *start*
        instead, so the following virtual addresses extend forward into
        the cluster (sub-VMA placement).
        """
        block = order_pages(order)
        ideal = cluster.start_pfn + wanted_lead
        if ideal + block <= cluster.end_pfn:
            return align_down(ideal, block)
        return align_down(cluster.start_pfn, block)

    @staticmethod
    def _order_aligned(pfn: int, order: int) -> bool:
        return pfn >= 0 and pfn % order_pages(order) == 0
