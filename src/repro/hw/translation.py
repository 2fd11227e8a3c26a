"""Vectorized view of a memory state's effective translations.

The MMU simulator needs, for every trace access: the backing frame, the
TLB entry granularity (4K or 2M), whether the translation belongs to a
large contiguous mapping (the SpOT contiguity bit in both dimensions),
and whether it falls into the direct segment.  This module resolves a
whole numpy trace in a few ``searchsorted`` passes so the sequential
TLB loop stays lean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.units import HUGE_ORDER, HUGE_PAGES
from repro.virt.hypervisor import VirtualMachine
from repro.virt.introspect import two_d_runs
from repro.vm.mapping_runs import MappingRuns
from repro.vm.process import Process
from repro.workloads.base import AccessTrace


@dataclass
class ResolvedTrace:
    """Per-access attributes the TLB loop consumes."""

    pc: np.ndarray
    vpn: np.ndarray
    ppn: np.ndarray
    entry_base: np.ndarray
    entry_huge: np.ndarray
    contig: np.ndarray
    in_segment: np.ndarray
    run_start: np.ndarray
    run_len: np.ndarray
    #: Row of each access's run in the view's sorted run table (int32).
    run_id: np.ndarray

    def __len__(self) -> int:
        return len(self.vpn)


def _inside(vpns: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> bool:
    """Whether every access lies inside its own run."""
    return bool(((starts <= vpns) & (vpns < starts + lens)).all())


@dataclass(frozen=True, eq=False)
class RunIndex:
    """Each walk's row in one sorted, disjoint run table.

    The batched scheme machines that reason per *run* instead of per
    access (vRMM, the coalesced TLB, Utopia, segmentation) rely on three
    stream properties: each access lies inside its own run, equal run
    starts imply equal lengths, and runs are disjoint.  An index exists
    only when all three hold — both builders return None otherwise and
    the machines fall back to their scalar loops.  One index serves
    every machine of a replay.
    """

    #: Run start VPNs, strictly increasing (int64).
    starts: np.ndarray
    #: Run lengths in pages, per row (int64).
    lens: np.ndarray
    #: Each walk's row in ``starts``/``lens`` (int32).
    ids: np.ndarray

    @classmethod
    def from_view(
        cls, view: TranslationView, walks: ResolvedTrace
    ) -> RunIndex | None:
        """Index of resolved walks over their view's own run table.

        The table is checked once (sorted, disjoint) and each walk with
        vectorized compares against its row — no sort.
        """
        starts = view.starts
        lens = view.lengths.astype(np.int64)
        if (starts[1:] <= starts[:-1]).any() or (
            starts[1:] < starts[:-1] + lens[:-1]
        ).any():
            return None
        ids = np.asarray(walks.run_id, dtype=np.int32)
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= starts.size):
            return None
        s = starts[ids]
        ln = lens[ids]
        if not (
            np.array_equal(s, walks.run_start)
            and np.array_equal(ln, walks.run_len)
            and _inside(walks.vpn, s, ln)
        ):
            return None
        return cls(starts, lens, ids)

    @classmethod
    def from_stream(
        cls, vpns: np.ndarray, run_starts: np.ndarray, run_lens: np.ndarray
    ) -> RunIndex | None:
        """Index of a raw ``(vpns, run_starts, run_lens)`` stream: its
        distinct runs become the table (one sort)."""
        vpns = np.asarray(vpns, dtype=np.int64)
        run_starts = np.asarray(run_starts, dtype=np.int64)
        run_lens = np.asarray(run_lens, dtype=np.int64)
        if not _inside(vpns, run_starts, run_lens):
            return None
        order = np.argsort(run_starts)
        s = run_starts[order]
        ln = run_lens[order]
        first = np.ones(s.size, dtype=bool)
        np.not_equal(s[1:], s[:-1], out=first[1:])
        same = ~first[1:]
        if (ln[1:][same] != ln[:-1][same]).any():
            return None  # one start, two lengths
        su = s[first]
        lu = ln[first]
        if (su[1:] < su[:-1] + lu[:-1]).any():
            return None  # overlapping runs
        ids = np.empty(s.size, dtype=np.int32)
        ids[order] = np.cumsum(first, dtype=np.int32) - 1
        return cls(su, lu, ids)

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Walks grouped by run, runs in first-touch order.

        Returns ``(runs, order, begins, ends)``: ``runs[g]`` is the
        ``g``-th distinct row touched, and its walks are
        ``order[begins[g]:ends[g]]`` in stream order.  A counting sort:
        one ``bincount`` plus a stable sort of the id, narrowed to 16
        bits when the table allows (numpy radix-sorts those).
        """
        counts = np.bincount(self.ids, minlength=self.starts.size)
        key = self.ids
        if self.starts.size <= 1 << 16:
            key = key.astype(np.uint16)
        order = np.argsort(key, kind="stable")
        present = np.flatnonzero(counts)
        ends = np.cumsum(counts[present])
        begins = ends - counts[present]
        by_touch = np.argsort(order[begins])
        return present[by_touch], order, begins[by_touch], ends[by_touch]


class TranslationView:
    """Effective translations of one process (native 1D or virtualized 2D).

    Parameters
    ----------
    runs:
        Mapping runs: gVA→hPA for virtualized states, VA→PA natively.
    huge_regions:
        Sorted array of 2 MiB-region base VPNs for which hardware can
        cache a single 2 MiB TLB entry (guest leaf huge *and* backed by
        one huge nested leaf — splintering otherwise).
    segment_bounds:
        ``(start_vpn, end_vpn)`` ranges covered by the direct segment.
    """

    def __init__(
        self,
        runs: MappingRuns,
        huge_regions: np.ndarray,
        segment_bounds: list[tuple[int, int]],
        contig_threshold: int = 32,
        virtualized: bool = False,
    ):
        snapshot = runs.snapshot()
        self.starts = np.array([r.start_vpn for r in snapshot], dtype=np.int64)
        self.ends = np.array([r.end_vpn for r in snapshot], dtype=np.int64)
        self.ppns = np.array([r.start_pfn for r in snapshot], dtype=np.int64)
        self.lengths = (self.ends - self.starts).astype(np.int32)
        self.huge_regions = np.asarray(huge_regions, dtype=np.int64)
        self.segment_bounds = segment_bounds
        self.contig_threshold = contig_threshold
        self.virtualized = virtualized

    # -- constructors -----------------------------------------------------

    @classmethod
    def native(cls, process: Process, contig_threshold=32,
               force_4k: bool = False) -> "TranslationView":
        """View of a native process's page tables.

        ``contig_threshold="auto"`` derives the SpOT contiguity-bit
        threshold from the process's run-length statistics (§IV-C's
        dynamic-adjustment suggestion).
        """
        if contig_threshold == "auto":
            from repro.metrics.contiguity import suggest_contig_threshold

            contig_threshold = suggest_contig_threshold(process.space.runs)
        huge = (
            np.empty(0, dtype=np.int64)
            if force_4k
            else np.array(
                sorted(
                    vpn
                    for vpn, pte in process.space.page_table.iter_leaves()
                    if pte.huge
                ),
                dtype=np.int64,
            )
        )
        return cls(
            process.space.runs,
            huge,
            segment_bounds=_anon_bounds(process),
            contig_threshold=contig_threshold,
            virtualized=False,
        )

    @classmethod
    def virtualized(cls, vm: VirtualMachine, process: Process,
                    contig_threshold=32,
                    force_4k: bool = False) -> "TranslationView":
        """2D (gVA→hPA) view of a guest process.

        A 2 MiB TLB entry is possible only where the guest leaf is huge
        and the whole region stays contiguous through the nested
        dimension (one 2D run covers it); otherwise the entry
        splinters to 4 KiB.  ``contig_threshold="auto"`` derives the
        threshold from the 2D run statistics.
        """
        runs = two_d_runs(vm, process)
        if contig_threshold == "auto":
            from repro.metrics.contiguity import suggest_contig_threshold

            contig_threshold = suggest_contig_threshold(runs)
        huge_list: list[int] = []
        if not force_4k:
            for vpn, pte in process.space.page_table.iter_leaves():
                if not pte.huge:
                    continue
                run = runs.find(vpn)
                if run and run.start_vpn <= vpn and run.end_vpn >= vpn + HUGE_PAGES:
                    huge_list.append(vpn)
        return cls(
            runs,
            np.array(sorted(huge_list), dtype=np.int64),
            segment_bounds=_anon_bounds(process),
            contig_threshold=contig_threshold,
            virtualized=True,
        )

    # -- scalar queries (tests / schemes) --------------------------------------

    def translate(self, vpn: int) -> int | None:
        """Backing frame of one page, or None."""
        i = int(np.searchsorted(self.starts, vpn, side="right")) - 1
        if i < 0 or vpn >= self.ends[i]:
            return None
        return int(self.ppns[i] + (vpn - self.starts[i]))

    def run_length_at(self, vpn: int) -> int:
        """Length of the effective run covering ``vpn`` (0 if unmapped)."""
        i = int(np.searchsorted(self.starts, vpn, side="right")) - 1
        if i < 0 or vpn >= self.ends[i]:
            return 0
        return int(self.lengths[i])

    # -- vectorized resolution ---------------------------------------------------

    #: ``resolve`` swaps per-access binary searches for direct lookup
    #: tables when the trace's vpn footprint is compact enough to index
    #: (tables this size build in microseconds and fit in cache).
    _LUT_SPAN_CAP = 1 << 22

    def resolve(self, trace: AccessTrace, vma_start_vpns: list[int]) -> ResolvedTrace:
        """Resolve a trace into per-access attributes (numpy, no loops)."""
        base = np.asarray(vma_start_vpns, dtype=np.int64)
        vpn = base[trace.vma] + trace.page
        vmin = int(vpn.min()) if vpn.size else 0
        span = (int(vpn.max()) - vmin + 1) if vpn.size else 0
        region = vpn & ~np.int64(HUGE_PAGES - 1)

        if 0 < span <= self._LUT_SPAN_CAP:
            rel = (vpn - vmin).astype(np.int32)
            # Step function #{starts <= v}: one count per bucket, then a
            # prefix sum.  Starts below the window land in bucket 0 and
            # count for every v; starts above it land in the sentinel
            # bucket no lookup reaches.
            d = np.zeros(span + 1, dtype=np.int32)
            np.add.at(d, np.clip(self.starts - vmin, 0, span), 1)
            idx = np.cumsum(d, dtype=np.int32)[rel] - 1

            rbase = vmin >> HUGE_ORDER
            rsize = ((vmin + span - 1) >> HUGE_ORDER) - rbase + 1
            lut_huge = np.zeros(rsize, dtype=bool)
            if len(self.huge_regions):
                hr = (self.huge_regions >> HUGE_ORDER) - rbase
                lut_huge[hr[(hr >= 0) & (hr < rsize)]] = True
            entry_huge = lut_huge[(vpn >> HUGE_ORDER) - rbase]

            # Segment coverage as a +1/-1 fence diff over the window.
            d2 = np.zeros(span + 1, dtype=np.int32)
            for lo, hi in self.segment_bounds:
                d2[min(max(lo - vmin, 0), span)] += 1
                d2[min(max(hi - vmin, 0), span)] -= 1
            in_segment = np.cumsum(d2, dtype=np.int32)[rel] > 0
        else:
            idx = np.searchsorted(self.starts, vpn, side="right") - 1
            if len(self.huge_regions):
                pos = np.searchsorted(self.huge_regions, region)
                pos_c = np.clip(pos, 0, len(self.huge_regions) - 1)
                entry_huge = self.huge_regions[pos_c] == region
            else:
                entry_huge = np.zeros(len(vpn), dtype=bool)
            # Segment bounds are disjoint intervals: a page is inside one
            # iff its insertion point into the flattened edge list is odd.
            if self.segment_bounds:
                edges = np.asarray(
                    [e for b in sorted(self.segment_bounds) for e in b],
                    dtype=np.int64,
                )
                in_segment = (np.searchsorted(edges, vpn, side="right") & 1) == 1
            else:
                in_segment = np.zeros(len(vpn), dtype=bool)

        idx_clipped = np.clip(idx, 0, max(0, len(self.starts) - 1))
        starts = self.starts[idx_clipped]
        bad = (idx < 0) | (len(self.starts) == 0)
        if len(self.starts):
            bad |= vpn >= self.ends[idx_clipped]
        if bad.any():
            missing = vpn[bad]
            raise ValueError(
                f"trace touches {len(missing)} unmapped pages "
                f"(first vpn {int(missing[0]):#x}) — run the workload first"
            )
        ppn = self.ppns[idx_clipped] + (vpn - starts)
        run_len = self.lengths[idx_clipped]
        contig = run_len >= self.contig_threshold
        entry_base = np.where(entry_huge, region, vpn)

        return ResolvedTrace(
            pc=trace.pc,
            vpn=vpn,
            ppn=ppn,
            entry_base=entry_base,
            entry_huge=entry_huge,
            contig=contig,
            in_segment=in_segment,
            run_start=starts,
            run_len=run_len,
            run_id=idx.astype(np.int32, copy=False),
        )


def _anon_bounds(process: Process) -> list[tuple[int, int]]:
    """Direct-segment coverage: the process's anonymous areas.

    The paper's DS baseline backs the primary region (all heap
    allocations, steered there by the modified TCMalloc) with one dual
    direct segment.
    """
    return [
        (vma.start_vpn, vma.end_vpn)
        for vma in process.space.iter_vmas()
        if vma.file is None
    ]
