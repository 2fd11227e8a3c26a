"""Coalesced TLB: one entry covers a whole contiguity run (Ban & Cheng).

The design (arXiv 1908.08774) observes that real mappings exhibit
*diverse* contiguity — a few huge runs plus many short ones — and
coalesces a variable-length run of contiguous translations into a
single TLB entry instead of requiring aligned 2/4/8-page groups.  We
model the last-level coalescing structure: entries are indexed by an
aligned *span window* of ``span_pages`` pages, and each entry records
the sub-interval of its window actually covered by one contiguous run
(runs shorter than the window coalesce partially; runs crossing many
windows occupy one entry per window).

A last-level TLB miss whose window entry is resident *and* covers the
page is a coalesced hit (no walk cost beyond the entry lookup); any
other miss pays the full walk and installs the intersection of its run
with its window.  The overhead model charges only uncovered misses —
the same only-uncovered-misses accounting vRMM gets (§V of the source
paper), making the two range-exploiting designs directly comparable.

Like every scheme machine, the scalar :meth:`CoalescedTlb.on_miss` is
the reference; :meth:`CoalescedTlb.on_miss_batch` replays an entire
miss stream in numpy, bit-identical on counters *and* end state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Knuth multiplicative mix — must match the scalar set index exactly.
_HASH_MULT = 0x9E3779B1


@dataclass
class CtlbStats:
    """Coalesced-TLB counters."""

    covered: int = 0
    missed: int = 0
    #: Pages covered summed over all installs (coalescing quality).
    pages_covered_sum: int = 0

    @property
    def total(self) -> int:
        return self.covered + self.missed

    @property
    def coverage_fraction(self) -> float:
        return self.covered / max(1, self.total)

    @property
    def avg_pages_per_install(self) -> float:
        return self.pages_covered_sum / max(1, self.missed)


class CoalescedTlb:
    """Set-associative LRU TLB of run-coalesced entries.

    Parameters
    ----------
    entries, ways:
        Geometry of the coalescing structure (entries / ways sets).
    span_pages:
        Aligned window one entry can cover; must be a power of two.
    """

    def __init__(self, entries: int = 64, ways: int = 4, span_pages: int = 16):
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError(
                f"bad coalesced-TLB geometry: {entries} entries / {ways} ways"
            )
        if span_pages <= 0 or span_pages & (span_pages - 1):
            raise ValueError(f"span must be a power of two, got {span_pages}")
        self.entries = entries
        self.ways = ways
        self.n_sets = entries // ways
        self.span_pages = span_pages
        self.span_order = span_pages.bit_length() - 1
        # Per set: window id -> (cov_start, cov_end) in LRU order
        # (dict order, LRU first) — the coverage IS the entry payload,
        # so residency order and coverage can never disagree.
        self._sets: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(self.n_sets)
        ]
        self.stats = CtlbStats()

    def _set_of(self, window: int) -> dict[int, tuple[int, int]]:
        return self._sets[((window * _HASH_MULT) >> 12) % self.n_sets]

    def _clip(self, window: int, run_start: int, run_len: int) -> tuple[int, int]:
        """Coverage installed for a miss: run ∩ window."""
        lo = window << self.span_order
        return (max(run_start, lo), min(run_start + run_len, lo + self.span_pages))

    def on_miss(self, vpn: int, run_start: int, run_len: int) -> bool:
        """One last-level TLB miss; True when the entry coalesces it."""
        window = vpn >> self.span_order
        s = self._set_of(window)
        cov = s.pop(window, None)
        if cov is not None and cov[0] <= vpn < cov[1]:
            s[window] = cov  # LRU refresh
            self.stats.covered += 1
            return True
        if cov is None and len(s) >= self.ways:
            del s[next(iter(s))]
        cstart, cend = self._clip(window, run_start, run_len)
        if not cstart <= vpn < cend:
            cstart, cend = vpn, vpn + 1  # page outside its claimed run
        s[window] = (cstart, cend)
        self.stats.missed += 1
        self.stats.pages_covered_sum += cend - cstart
        return False

    # -- batched miss path (the vector engine) -------------------------------

    def on_miss_batch(
        self,
        vpns: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
    ) -> tuple[int, int]:
        """Batched :meth:`on_miss`; returns (covered, missed).

        Every access — covered or not — moves its window key to MRU, so
        window *residency* is a pure function of the stream and one
        warm-prefixed :func:`~repro.hw.vector_tlb.simulate_level` call
        resolves it.  Coverage then closes per window: since runs are
        disjoint and each access lies inside its own run, a resident
        window covers an access iff the run last installed in it equals
        the access's own run — true for every access except the first
        of each maximal equal-run segment (the previous segment's run
        differs), while the leading warm-covered prefix of the first
        segment checks the warm entry's interval directly (state from
        earlier batches need not match this batch's run table).
        Streams violating the run invariants fall back to the scalar
        loop (same results, just not batched).
        """
        n = int(len(vpns))
        if n == 0:
            return (0, 0)
        vpns = np.ascontiguousarray(vpns, dtype=np.int64)
        run_starts = np.ascontiguousarray(run_starts, dtype=np.int64)
        run_lens = np.ascontiguousarray(run_lens, dtype=np.int64)

        from repro.hw.rmm import exact_run_table

        if exact_run_table(vpns, run_starts, run_lens) is None:
            covered = missed = 0
            for v, s, ln in zip(
                vpns.tolist(), run_starts.tolist(), run_lens.tolist()
            ):
                if self.on_miss(v, s, ln):
                    covered += 1
                else:
                    missed += 1
            return (covered, missed)

        from repro.hw import vector_tlb as vt

        windows = vpns >> self.span_order
        sets = vt.set_indices(windows.astype(np.uint64), self.n_sets)

        # Warm prefix: replay current residents LRU→MRU first so the
        # stack-distance machinery sees the live state.
        warm_cov = [dict(s) for s in self._sets]
        warm_keys = [w for s in warm_cov for w in s]
        if warm_keys:
            warm_windows = np.asarray(warm_keys, dtype=np.int64)
            warm_sets = vt.set_indices(
                warm_windows.astype(np.uint64), self.n_sets
            )
            all_windows = np.concatenate([warm_windows, windows])
            all_sets = np.concatenate([warm_sets, sets])
        else:
            all_windows, all_sets = windows, sets
        hit_mask, residents = vt.simulate_level(
            all_windows, all_sets, self.n_sets, self.ways
        )
        key_hit = hit_mask[len(warm_keys):]

        # Group the stream by window; segment boundaries where the run
        # changes within a group.
        order = np.argsort(windows, kind="stable")
        w_sorted = windows[order]
        rs_sorted = run_starts[order]
        hit_sorted = key_hit[order]
        group_first = np.concatenate(([True], w_sorted[1:] != w_sorted[:-1]))
        seg_first = group_first | np.concatenate(
            ([True], rs_sorted[1:] != rs_sorted[:-1])
        )
        covered_sorted = hit_sorted & ~seg_first

        # First-segment fix-up for windows resident before the batch:
        # their leading accesses may be covered by the warm entry.
        warm_all = {w: cov for s in warm_cov for w, cov in s.items()}
        if warm_all:
            group_starts = np.flatnonzero(group_first)
            group_ends = np.append(group_starts[1:], n)
            warm_arr = np.asarray(sorted(warm_all), dtype=np.int64)
            pos = np.searchsorted(w_sorted, warm_arr)
            for w, p in zip(warm_arr.tolist(), pos.tolist()):
                if p >= n or int(w_sorted[p]) != w:
                    continue  # warm window not accessed in this batch
                g = int(np.searchsorted(group_starts, p, side="right")) - 1
                lo, hi = int(group_starts[g]), int(group_ends[g])
                # The warm entry stays installed until the window's first
                # miss, which may fall in any segment: a warm interval
                # from an earlier run table can cover several of this
                # batch's runs.
                cstart, cend = warm_all[w]
                v_grp = vpns[order[lo:hi]]
                wcov = hit_sorted[lo:hi] & (cstart <= v_grp) & (v_grp < cend)
                miss_at = np.flatnonzero(~wcov)
                first_miss = int(miss_at[0]) if miss_at.size else hi - lo
                fixed = covered_sorted[lo:hi]
                fixed[:first_miss] = True
                if first_miss < hi - lo:
                    fixed[first_miss] = False  # the installing miss
                # Positions after the install are governed by residency
                # alone (the installed run is that segment's own run),
                # which covered_sorted already encodes.

        covered_mask = np.empty(n, dtype=bool)
        covered_mask[order] = covered_sorted
        miss_mask = ~covered_mask
        missed = int(miss_mask.sum())
        covered = n - missed

        # Install accounting: every miss installs run ∩ window.
        lo = (vpns >> self.span_order) << self.span_order
        clip_len = np.minimum(run_starts + run_lens, lo + self.span_pages) - np.maximum(
            run_starts, lo
        )
        pages_sum = int(clip_len[miss_mask].sum())

        # Final coverage per window = clip of the *last* miss's run
        # (windows with no miss keep their warm coverage).
        final_cov: dict[int, tuple[int, int]] = {}
        miss_sorted_pos = np.flatnonzero(~covered_sorted)
        if miss_sorted_pos.size:
            w_miss = w_sorted[miss_sorted_pos]
            last_of_group = np.concatenate((w_miss[1:] != w_miss[:-1], [True]))
            for p in miss_sorted_pos[last_of_group].tolist():
                i = int(order[p])
                window = int(windows[i])
                cstart, cend = self._clip(
                    window, int(run_starts[i]), int(run_lens[i])
                )
                final_cov[window] = (cstart, cend)

        self._sets = [
            {
                w: final_cov.get(w) or warm_all[w]
                for w in map(int, residents[set_idx])
            }
            for set_idx in range(self.n_sets)
        ]
        self.stats.covered += covered
        self.stats.missed += missed
        self.stats.pages_covered_sum += pages_sum
        return (covered, missed)


def ctlb_entries_for_coverage(
    runs: list, footprint_pages: int,
    coverage: float = 0.99, span_pages: int = 16,
) -> int:
    """Table I-style column: coalesced entries to map 99% of a footprint.

    One run occupies one entry per aligned ``span_pages`` window it
    overlaps — the same alignment restriction vHC's anchors pay, at the
    coalescing span instead of the dynamic anchor distance.  Runs are
    taken largest-first, mirroring the paper's methodology for ranges.
    """
    from repro.hw.hybrid_coalescing import anchors_for_run

    if footprint_pages <= 0:
        return 0
    goal = coverage * footprint_pages
    covered = 0
    entries = 0
    for run in sorted(runs, key=lambda r: r.n_pages, reverse=True):
        entries += anchors_for_run(run, span_pages)
        covered += run.n_pages
        if covered >= goal:
            return entries
    return entries + 1
