"""Default paging with transparent huge pages (the stock Linux baseline).

Placement is whatever the buddy allocator hands out first — on an aged
machine (randomized free lists) that scatters a footprint across
physical memory, which is exactly why the paper's Figs. 7/8/12 show
thousands of mappings for this baseline.  All THP decisions (whether a
fault is 2 MiB) are made by the kernel; the policy only allocates.
"""

from __future__ import annotations

from repro.policies.base import FaultContext, PlacementPolicy


class DefaultPaging(PlacementPolicy):
    """Stock demand paging: first available block, no steering."""

    name = "thp"

    def allocate(self, ctx: FaultContext) -> tuple[int, int]:
        return self._default_alloc(ctx.order, ctx.preferred_node)

    def on_fault_batch(self, ctx: FaultContext, vpns):
        """Span fault path: one bulk buddy grab for the whole stretch."""
        return self._bulk_alloc_accounted(len(vpns), ctx.preferred_node)
