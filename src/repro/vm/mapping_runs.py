"""Incremental tracking of contiguous virtual-to-physical mapping runs.

A *mapping run* is the paper's larger-than-a-page contiguous mapping
(Fig. 1a): ``N`` consecutive virtual pages mapped to ``N`` consecutive
physical frames, identified by a single ``offset = vpn - pfn``.  This
structure maintains the set of maximal runs of an address space
incrementally, so that:

- the contiguity metrics (coverage of the K largest mappings, number of
  mappings for 99% coverage — Figs. 7/8/10/12, Table I) read it in
  O(runs) instead of scanning page tables,
- the kernel decides in O(log runs) whether a new allocation extended a
  mapping past the SpOT contiguity-bit threshold (§IV-C),
- range-based hardware models (vRMM) derive their range tables from it.

The same composition logic (intersection of two run sets) produces the
2D gVA→hPA runs for virtualized execution (:mod:`repro.virt.introspect`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass
class MappingRun:
    """A maximal contiguous virtual-to-physical mapping."""

    start_vpn: int
    start_pfn: int
    n_pages: int

    @property
    def end_vpn(self) -> int:
        """One past the last virtual page of the run."""
        return self.start_vpn + self.n_pages

    @property
    def end_pfn(self) -> int:
        """One past the last frame of the run."""
        return self.start_pfn + self.n_pages

    @property
    def offset(self) -> int:
        """The paper's Offset identifier (vpn − pfn, in pages)."""
        return self.start_vpn - self.start_pfn

    def contains_vpn(self, vpn: int) -> bool:
        """True when ``vpn`` falls inside the run."""
        return self.start_vpn <= vpn < self.end_vpn

    def translate(self, vpn: int) -> int:
        """PFN backing ``vpn``."""
        return vpn - self.offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Run(vpn={self.start_vpn:#x}->pfn={self.start_pfn:#x},"
            f" {self.n_pages}p)"
        )


class MappingRuns:
    """Sorted collection of maximal mapping runs with O(log n) updates."""

    def __init__(self) -> None:
        self._starts: list[int] = []  # sorted start_vpn keys
        self._runs: dict[int, MappingRun] = {}
        #: Bumped on every structural change; lets derived views (the
        #: composed 2D runs, translation snapshots) cache safely.
        self.generation = 0

    # -- updates ---------------------------------------------------------------

    def add(self, vpn: int, pfn: int, n_pages: int = 1) -> MappingRun:
        """Record a new mapping block; merges with adjacent runs.

        Returns the (possibly merged) run now covering the block.
        """
        run = MappingRun(vpn, pfn, n_pages)
        # Merge with predecessor when virtually adjacent with equal offset.
        i = bisect.bisect_left(self._starts, vpn)
        if i > 0:
            prev = self._runs[self._starts[i - 1]]
            if prev.end_vpn == vpn and prev.offset == run.offset:
                self._drop(prev)
                run = MappingRun(prev.start_vpn, prev.start_pfn, prev.n_pages + n_pages)
        # Merge with successor.
        i = bisect.bisect_left(self._starts, run.start_vpn)
        if i < len(self._starts):
            nxt = self._runs[self._starts[i]]
            if run.end_vpn == nxt.start_vpn and nxt.offset == run.offset:
                self._drop(nxt)
                run = MappingRun(run.start_vpn, run.start_pfn, run.n_pages + nxt.n_pages)
        self._insert(run)
        return run

    def remove(self, vpn: int, n_pages: int = 1) -> None:
        """Remove ``n_pages`` starting at ``vpn``; splits runs as needed."""
        self.remove_span(vpn, vpn + n_pages)

    def remove_span(self, vpn: int, end: int) -> list[tuple[int, int, int]]:
        """Remove all coverage in ``[vpn, end)``; returns removed chunks.

        Each chunk is ``(vpn, pfn, n_pages)`` of one removed contiguous
        mapping, in VPN order.  Uncovered holes are skipped via the
        sorted starts (O(log runs) per chunk, not per page), which is
        what lets the batched unmap paths free whole physical stretches
        at once.
        """
        removed: list[tuple[int, int, int]] = []
        while vpn < end:
            run = self.find(vpn)
            if run is None:
                i = bisect.bisect_left(self._starts, vpn)
                if i >= len(self._starts) or self._starts[i] >= end:
                    break
                vpn = self._starts[i]
                continue
            cut_end = min(end, run.end_vpn)
            removed.append((vpn, vpn - run.offset, cut_end - vpn))
            self._drop(run)
            if run.start_vpn < vpn:
                self._insert(MappingRun(run.start_vpn, run.start_pfn, vpn - run.start_vpn))
            if cut_end < run.end_vpn:
                self._insert(
                    MappingRun(cut_end, cut_end - run.offset, run.end_vpn - cut_end)
                )
            vpn = cut_end
        return removed

    # -- page-cache stretch updates ------------------------------------------
    #
    # ``generation`` is pickled into every checkpoint, so these advance it
    # exactly as the page cache's old page-by-page loops did.

    def add_stretch(self, vpn: int, pfn: int, n_pages: int) -> MappingRun:
        """:meth:`add` of ``n_pages`` uncovered pages, counted as
        ``n_pages`` single-page adds in VPN order.

        Page by page, every page after the first merges with the run the
        previous page just built: one ``_drop`` plus one ``_insert`` that
        the single add does not make.  Merges with outside neighbours
        (the predecessor for the first page, the successor for the last)
        happen once either way, so the page loop costs exactly
        ``2 * (n_pages - 1)`` more.  Delete that correction once
        checkpoints stop pickling ``generation`` (ROADMAP, "Checkpoints
        that hold only semantic state").
        """
        run = self.add(vpn, pfn, n_pages)
        self.generation += 2 * (n_pages - 1)
        return run

    def remove_stretches(self, vpn: int, end: int) -> list[tuple[int, int, int]]:
        """:meth:`remove_span` of ``[vpn, end)``, counted as single-page
        removes in VPN order; returns the removed chunks.

        Page by page, a ``k``-page chunk drops its run ``k`` times and
        re-inserts the rest of the run after each of its first ``k - 1``
        pages; the span remove drops it once.  Cutting off a left
        remainder, or a right one past the chunk, happens once either
        way, so the page loop costs exactly ``2 * (k - 1)`` more.
        Delete that correction with the same ROADMAP item as
        :meth:`add_stretch`.
        """
        removed = self.remove_span(vpn, end)
        self.generation += 2 * sum(n - 1 for _, _, n in removed)
        return removed

    def _insert(self, run: MappingRun) -> None:
        bisect.insort(self._starts, run.start_vpn)
        self._runs[run.start_vpn] = run
        self.generation += 1

    def _drop(self, run: MappingRun) -> None:
        i = bisect.bisect_left(self._starts, run.start_vpn)
        del self._starts[i]
        del self._runs[run.start_vpn]
        self.generation += 1

    # -- queries --------------------------------------------------------------

    def find(self, vpn: int) -> MappingRun | None:
        """The run covering ``vpn``, or None."""
        i = bisect.bisect_right(self._starts, vpn)
        if i == 0:
            return None
        run = self._runs[self._starts[i - 1]]
        return run if run.contains_vpn(vpn) else None

    def next_unmapped(self, vpn: int, end: int) -> tuple[int, int] | None:
        """First maximal uncovered span within ``[vpn, end)``, or None.

        Because runs mirror the page table exactly, this finds the next
        stretch of unmapped pages in O(log runs) instead of walking the
        table page by page (the ``touch_range`` fast path).
        """
        while vpn < end:
            run = self.find(vpn)
            if run is None:
                i = bisect.bisect_left(self._starts, vpn)
                gap_end = self._starts[i] if i < len(self._starts) else end
                return vpn, min(end, gap_end)
            vpn = run.end_vpn
        return None

    def covered_pages(self, vpn: int, end: int) -> int:
        """Mapped pages within ``[vpn, end)`` (runs mirror the page table)."""
        covered = 0
        run = self.find(vpn)
        i = bisect.bisect_left(self._starts, vpn if run is None else run.start_vpn)
        while i < len(self._starts) and self._starts[i] < end:
            r = self._runs[self._starts[i]]
            covered += min(end, r.end_vpn) - max(vpn, r.start_vpn)
            i += 1
        return covered

    def run_length_at(self, vpn: int) -> int:
        """Length (pages) of the run covering ``vpn``; 0 when unmapped."""
        run = self.find(vpn)
        return run.n_pages if run else 0

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[MappingRun]:
        return (self._runs[s] for s in self._starts)

    @property
    def total_pages(self) -> int:
        """Total pages covered by all runs."""
        return sum(r.n_pages for r in self._runs.values())

    def sizes_desc(self) -> list[int]:
        """Run sizes in pages, largest first."""
        return sorted((r.n_pages for r in self._runs.values()), reverse=True)

    def snapshot(self) -> list[MappingRun]:
        """Copy of all runs in VPN order."""
        return [
            MappingRun(r.start_vpn, r.start_pfn, r.n_pages)
            for r in self
        ]


def frame_stretches(pfns: list[int]) -> list[tuple[int, int]]:
    """Maximal stretches of consecutive frames in ``pfns``.

    Returns ``(i, n)`` pairs: ``pfns[i:i + n]`` is ``pfns[i]``,
    ``pfns[i] + 1``, ... and no stretch extends into a neighbour.
    """
    stretches = []
    start = 0
    for i in range(1, len(pfns)):
        if pfns[i] != pfns[i - 1] + 1:
            stretches.append((start, i - start))
            start = i
    if pfns:
        stretches.append((start, len(pfns) - start))
    return stretches


def compose(first: Iterable[MappingRun], second: MappingRuns) -> MappingRuns:
    """Compose two translation dimensions into full 2D runs.

    ``first`` maps A→B (e.g. gVA→gPA) and ``second`` maps B→C (e.g.
    gPA→hPA); the result maps A→C (gVA→hPA).  Each first-dimension run
    is intersected with the second-dimension runs covering its
    intermediate range; a 2D run continues only while *both* dimensions
    stay contiguous — exactly the paper's effective-contiguity notion
    (Fig. 5) and the logic of our VMI introspection tool.
    """
    result = MappingRuns()
    for run in first:
        b = run.start_pfn  # intermediate address (dimension-B page)
        b_end = run.end_pfn
        while b < b_end:
            inner = second.find(b)
            if inner is None:
                b += 1
                continue
            span = min(b_end, inner.end_vpn) - b
            vpn = run.start_vpn + (b - run.start_pfn)
            result.add(vpn, inner.translate(b), span)
            b += span
    return result
