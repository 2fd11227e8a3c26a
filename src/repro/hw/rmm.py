"""vRMM: virtualized Redundant Memory Mappings (the paper's comparison).

RMM caches [base, limit, offset] *range translations* in a
fully-associative range TLB, redundant to paging.  Virtualized, the
ranges must be full 2D (gVA→hPA) translations — the paper argues the
hardware for that (nested B-tree range walks, range intersection) is
expensive, and uses a 32-entry range TLB with flat range tables in its
emulation (§V).

The overhead model (Table IV) assumes the nested range-table walk is
hidden in the background, so only misses *uncovered by any range* pay a
page walk.  Ranges are the effective 2D runs at least
``min_range_pages`` long (small scattered mappings stay paged —
SVM/BT's residual overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.translation import RunIndex

RANGE_HIT = "range_hit"
RANGE_FILL = "range_fill"
UNCOVERED = "uncovered"


@dataclass
class RmmStats:
    """Range TLB counters."""

    range_hits: int = 0
    range_fills: int = 0
    uncovered: int = 0

    @property
    def covered(self) -> int:
        return self.range_hits + self.range_fills

    @property
    def total(self) -> int:
        return self.covered + self.uncovered


class RangeTlb:
    """Fully-associative LRU range TLB (Table II: 32 entries)."""

    def __init__(self, entries: int = 32, min_range_pages: int = 32):
        if entries <= 0:
            raise ValueError(f"range TLB needs at least one entry, got {entries}")
        self.entries = entries
        self.min_range_pages = min_range_pages
        # run start_vpn -> (end_vpn) in LRU order (dict order).
        self._ranges: dict[int, int] = {}
        self.stats = RmmStats()

    def on_miss(self, vpn: int, run_start: int, run_len: int) -> str:
        """One last-level TLB miss.

        ``run_start``/``run_len`` describe the effective 2D run backing
        the page (0 length when the page is outside any run big enough
        to be a range).
        """
        hit_start = None
        for start, end in self._ranges.items():
            if start <= vpn < end:
                hit_start = start
                break
        if hit_start is not None:
            # LRU refresh.
            end = self._ranges.pop(hit_start)
            self._ranges[hit_start] = end
            self.stats.range_hits += 1
            return RANGE_HIT
        if run_len >= self.min_range_pages:
            if len(self._ranges) >= self.entries:
                del self._ranges[next(iter(self._ranges))]
            self._ranges[run_start] = run_start + run_len
            self.stats.range_fills += 1
            return RANGE_FILL
        self.stats.uncovered += 1
        return UNCOVERED

    # -- batched miss path (what MmuSimulator replays) -----------------------

    def on_miss_batch(
        self,
        vpns: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
        runs: RunIndex | None = None,
    ) -> tuple[int, int, int]:
        """Batched :meth:`on_miss`; returns (hits, fills, uncovered).

        ``runs`` indexes the stream's runs (built from the stream when
        not given).  Runs are disjoint and every access lies inside its
        own run, so a miss hits the range TLB iff its *own* run is
        resident and the whole stream reduces to fully-associative LRU
        over run ids — resolved in one
        :func:`~repro.hw.vector_tlb.simulate_level` call over the
        rangeable (``run_len >= min_range_pages``) subset; shorter runs
        are never filled, so they are uncovered and perturb nothing.
        Warm or unindexable streams fall back to the per-miss loop (same
        results, just not batched).
        """
        n = int(len(vpns))
        if n == 0:
            return (0, 0, 0)
        if runs is None and not self._ranges:
            runs = RunIndex.from_stream(vpns, run_starts, run_lens)
        if self._ranges or runs is None:
            hits = fills = uncovered = 0
            for v, s, ln in zip(
                np.asarray(vpns).tolist(),
                np.asarray(run_starts).tolist(),
                np.asarray(run_lens).tolist(),
            ):
                outcome = self.on_miss(v, s, ln)
                if outcome == RANGE_HIT:
                    hits += 1
                elif outcome == RANGE_FILL:
                    fills += 1
                else:
                    uncovered += 1
            return (hits, fills, uncovered)

        from repro.hw import vector_tlb as vt

        keys = runs.ids[(runs.lens >= self.min_range_pages)[runs.ids]]
        n_rangeable = int(keys.size)
        uncovered = n - n_rangeable
        hits = fills = 0
        if n_rangeable:
            hit_mask, residents = vt.simulate_level(
                keys.astype(np.int64),
                np.zeros(n_rangeable, dtype=np.int32),
                1,
                self.entries,
            )
            hits = int(hit_mask.sum())
            fills = n_rangeable - hits
            rows = np.asarray(residents[0], dtype=np.int64)
            starts = runs.starts[rows]
            self._ranges = dict(
                zip(starts.tolist(), (starts + runs.lens[rows]).tolist())
            )
        self.stats.range_hits += hits
        self.stats.range_fills += fills
        self.stats.uncovered += uncovered
        return (hits, fills, uncovered)


def ranges_for_coverage(run_sizes: list[int], footprint_pages: int,
                        coverage: float = 0.99) -> int:
    """Table I left column: ranges needed to map 99% of the footprint.

    A vRMM range is one contiguous 2D mapping; counting largest-first
    mirrors the paper's methodology.
    """
    from repro.metrics.contiguity import mappings_for_coverage

    return mappings_for_coverage(run_sizes, footprint_pages, coverage)
