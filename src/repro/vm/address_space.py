"""Per-process address spaces: VMA management + page table + run tracking.

The address space owns the three views of a process's memory that the
rest of the library consumes:

- the VMA list (``mmap``/``munmap``),
- the radix page table (installed mappings),
- the :class:`~repro.vm.mapping_runs.MappingRuns` set of contiguous
  mappings, updated on every map/unmap (the contiguity statistics and
  the SpOT contiguity bit read it).
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.errors import AddressSpaceError, MappingError
from repro.units import HUGE_PAGES, align_up
from repro.vm.flags import PteFlags, VmaFlags
from repro.vm.mapping_runs import MappingRuns
from repro.vm.page_table import PageTable, Pte
from repro.vm.vma import Vma

#: Where the bump allocator places the first VMA (arbitrary, huge-aligned).
DEFAULT_MMAP_BASE_VPN = 0x7F00_0000_0000 >> 12  # 0x7f0000000 pages
#: Unmapped guard gap between consecutive VMAs, in pages.
VMA_GAP_PAGES = HUGE_PAGES


class AddressSpace:
    """Virtual address space of one process (or one guest kernel)."""

    def __init__(self, mmap_base_vpn: int = DEFAULT_MMAP_BASE_VPN):
        self.page_table = PageTable()
        self.runs = MappingRuns()
        self._vma_starts: list[int] = []
        self._vmas: dict[int, Vma] = {}
        self._mmap_cursor = mmap_base_vpn

    # Checkpoint digests cover the pickled layout, which still carries the retired
    # column-mirror keys (ROADMAP: "Checkpoints that hold only semantic state").
    def __getstate__(self) -> dict:
        return {**self.__dict__, "columnar": False, "_columns": {}}

    def __setstate__(self, state: dict) -> None:
        state.pop("columnar", None)
        state.pop("_columns", None)
        self.__dict__.update(state)

    # -- VMA management ----------------------------------------------------

    def mmap(
        self,
        n_pages: int,
        flags: VmaFlags,
        at_vpn: int | None = None,
        name: str = "",
        file=None,
    ) -> Vma:
        """Create a VMA of ``n_pages``; address chosen by a bump allocator.

        Virtual starts are 2 MiB-aligned (like Linux THP-friendly mmap)
        and separated by a guard gap so distinct VMAs never produce
        accidentally adjacent virtual pages.
        """
        if n_pages <= 0:
            raise AddressSpaceError(f"mmap of {n_pages} pages")
        if at_vpn is None:
            at_vpn = align_up(self._mmap_cursor, HUGE_PAGES)
        if self._overlaps(at_vpn, n_pages):
            raise AddressSpaceError(
                f"VMA [{at_vpn:#x}, {at_vpn + n_pages:#x}) overlaps an existing one"
            )
        vma = Vma(at_vpn, n_pages, flags, name=name, file=file)
        bisect.insort(self._vma_starts, at_vpn)
        self._vmas[at_vpn] = vma
        self._mmap_cursor = max(
            self._mmap_cursor, align_up(vma.end_vpn + VMA_GAP_PAGES, HUGE_PAGES)
        )
        return vma

    def munmap(self, vma: Vma) -> list[tuple[int, Pte]]:
        """Remove a VMA; returns the leaves that were mapped inside it.

        The caller (kernel) frees the underlying frames.
        """
        if self._vmas.get(vma.start_vpn) is not vma:
            raise AddressSpaceError(f"munmap of unknown VMA {vma!r}")
        removed: list[tuple[int, Pte]] = []
        table = self.page_table
        vpn = vma.start_vpn
        while (walk := table.next_leaf(vpn, vma.end_vpn)) is not None:
            table.unmap(walk.base_vpn)
            removed.append((walk.base_vpn, walk.pte))
            self.runs.remove(walk.base_vpn, 1 << walk.pte.order)
            vpn = walk.base_vpn + (1 << walk.pte.order)
        i = bisect.bisect_left(self._vma_starts, vma.start_vpn)
        del self._vma_starts[i]
        del self._vmas[vma.start_vpn]
        vma.mapped_pages = 0
        return removed

    def _overlaps(self, start: int, n_pages: int) -> bool:
        end = start + n_pages
        i = bisect.bisect_right(self._vma_starts, start)
        if i > 0 and self._vmas[self._vma_starts[i - 1]].end_vpn > start:
            return True
        return i < len(self._vma_starts) and self._vma_starts[i] < end

    def vma_at(self, vpn: int) -> Vma | None:
        """The VMA covering ``vpn``, or None."""
        i = bisect.bisect_right(self._vma_starts, vpn)
        if i == 0:
            return None
        vma = self._vmas[self._vma_starts[i - 1]]
        return vma if vma.contains(vpn) else None

    def iter_vmas(self) -> Iterator[Vma]:
        """VMAs in address order."""
        return (self._vmas[s] for s in self._vma_starts)

    @property
    def vma_count(self) -> int:
        """Number of VMAs."""
        return len(self._vmas)

    # -- mapping installation -------------------------------------------------

    def install(self, vma: Vma, vpn: int, pfn: int, order: int, flags: PteFlags) -> Pte:
        """Map ``vpn -> pfn`` and update run tracking + VMA accounting."""
        pte = self.page_table.map(vpn, pfn, order=order, flags=flags)
        self.runs.add(vpn, pfn, 1 << order)
        vma.mapped_pages += 1 << order
        return pte

    def install_batch(self, vma: Vma, vpn: int, pfns: list[int],
                      starts: list[int], flags: PteFlags, contig: list[bool]):
        """Map the base leaves ``vpn + i -> pfns[i]`` in one batch.

        The span fault path's installer: one :meth:`PageTable.map_span`
        sweep for the whole batch, then one run insertion per physical
        segment ``pfns[starts[k]:starts[k + 1]]`` (``starts`` runs from 0
        to ``len(pfns)``; frames are consecutive inside a segment) and
        one accounting update.  Page ``i`` carries the CONTIG bit from
        creation when ``contig[i]`` holds.  Returns ``(last_run,
        last_pte)``, the run now covering the last page and its leaf, so
        the caller can apply the successor-merge contiguity fixup.
        """
        last = self.page_table.map_span(vpn, pfns, flags, contig)
        add = self.runs.add
        for s, e in zip(starts, starts[1:]):
            run = add(vpn + s, pfns[s], e - s)
        vma.mapped_pages += len(pfns)
        return run, last

    def uninstall(self, vma: Vma, vpn: int) -> Pte:
        """Unmap the leaf covering ``vpn``; update runs and accounting."""
        walk = self.page_table.walk(vpn)
        if not walk.hit:
            raise MappingError(f"uninstall of unmapped vpn {vpn:#x}")
        self.page_table.unmap(vpn)
        pages = 1 << walk.pte.order
        self.runs.remove(walk.base_vpn, pages)
        vma.mapped_pages -= pages
        return walk.pte

    def uninstall_region(self, vma: Vma, region_vpn: int) -> list[tuple[int, int, int]]:
        """Unmap every 4 KiB leaf of one 2 MiB region in one batch.

        The promotion fast path: detaches the region's PT leaves with a
        single page-table descent and removes the covering runs whole,
        returning the removed ``(vpn, pfn, n_pages)`` chunks so the
        caller can release contiguous physical stretches together.
        """
        removed = self.page_table.unmap_region_leaves(region_vpn)
        chunks = self.runs.remove_span(region_vpn, region_vpn + HUGE_PAGES)
        vma.mapped_pages -= removed
        return chunks

    # -- queries ---------------------------------------------------------------

    def is_mapped(self, vpn: int) -> bool:
        """True when a present leaf covers ``vpn``."""
        return self.page_table.is_mapped(vpn)

    def translate(self, vpn: int) -> int | None:
        """PFN backing ``vpn``, or None."""
        return self.page_table.translate(vpn)

    @property
    def resident_pages(self) -> int:
        """Total base pages currently mapped."""
        return self.runs.total_pages

    def huge_candidate(self, vma: Vma, vpn: int) -> int | None:
        """The 2 MiB-aligned base VPN for a THP fault at ``vpn``.

        Returns None when the aligned region does not fit inside the
        VMA, THP is disabled for it, or part of the region is already
        mapped (Linux would then fall back to base pages).
        """
        if vma.flags & VmaFlags.NOHUGE:
            return None
        base = vpn & ~(HUGE_PAGES - 1)
        if base < vma.start_vpn or base + HUGE_PAGES > vma.end_vpn:
            return None
        # A PMD-aligned region is mappable only if the PMD slot holds
        # neither a leaf nor a PT node with live 4K entries (Linux
        # falls back to base pages otherwise).
        if not self.page_table.huge_slot_free(base):
            return None
        return base
