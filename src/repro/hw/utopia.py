"""Utopia: hybrid restrictive/flexible virtual-to-physical mappings.

Utopia (arXiv 2211.12205) splits physical memory into two mapping
regions: *RestSegs*, where the virtual-to-physical mapping is
restricted enough that translation needs no page walk (a set-index-like
computation plus a small tag check), and *FlexSegs*, conventional
flexibly-mapped memory that pays the full (nested) walk.  Hot data
migrates into RestSegs so most misses translate at near-segment cost.

The model here maps the design onto this repo's run-granular memory
state: an effective 2D contiguity run is the migration unit.  Every
last-level TLB miss to a run still in flexible memory pays the full
walk and bumps the run's miss counter; when a run's counter reaches
``promote_after`` it is promoted into the RestSeg — if the RestSeg has
capacity left (``restseg_pages``; promotion is permanent, RestSegs are
never evicted in steady state).  Misses to promoted runs cost only the
restrictive translation (``WalkCosts.utopia_rest_cycles``).

The scalar :meth:`UtopiaMapper.on_miss` is the reference;
:meth:`UtopiaMapper.on_miss_batch` resolves a whole miss stream at
once: promotion decisions depend only on per-run miss counts and the
order in which runs reach the promotion threshold, both computable in
closed form from the stream (capacity is monotone decreasing, so a run
that cannot promote at threshold can never promote later).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.translation import RunIndex

REST_HIT = "rest_hit"
FLEX_WALK = "flex_walk"


@dataclass
class UtopiaStats:
    """Hybrid-mapping counters."""

    rest_hits: int = 0
    flex_walks: int = 0
    promotions: int = 0
    promoted_pages: int = 0

    @property
    def total(self) -> int:
        return self.rest_hits + self.flex_walks


class UtopiaMapper:
    """Promotion state machine over contiguity runs.

    Parameters
    ----------
    restseg_pages:
        Total restrictive-region capacity, in pages.
    promote_after:
        Flexible misses a run must absorb before it is promoted.
    """

    def __init__(self, restseg_pages: int = 1 << 18, promote_after: int = 4):
        if restseg_pages < 0:
            raise ValueError(f"negative RestSeg capacity: {restseg_pages}")
        if promote_after < 1:
            raise ValueError(f"promote_after must be >= 1, got {promote_after}")
        self.restseg_pages = restseg_pages
        self.promote_after = promote_after
        #: run_start -> run_len, in promotion order (dict order).
        self._promoted: dict[int, int] = {}
        #: run_start -> flexible misses seen, in first-touch order.
        self._miss_counts: dict[int, int] = {}
        self.free_pages = restseg_pages
        self.stats = UtopiaStats()

    def on_miss(self, vpn: int, run_start: int, run_len: int) -> str:
        """One last-level TLB miss; REST_HIT when the run is promoted."""
        if run_start in self._promoted:
            self.stats.rest_hits += 1
            return REST_HIT
        self.stats.flex_walks += 1
        count = self._miss_counts.get(run_start, 0) + 1
        self._miss_counts[run_start] = count
        if count >= self.promote_after and 0 < run_len <= self.free_pages:
            self._promoted[run_start] = run_len
            self.free_pages -= run_len
            self.stats.promotions += 1
            self.stats.promoted_pages += run_len
        return FLEX_WALK

    # -- batched miss path (what MmuSimulator replays) -----------------------

    def on_miss_batch(
        self,
        vpns: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
        runs: RunIndex | None = None,
    ) -> tuple[int, int]:
        """Batched :meth:`on_miss`; returns (rest_hits, flex_walks).

        Per run the outcome stream is closed-form: accesses before the
        promotion point are flexible walks, accesses after are
        restrictive hits.  A run's only possible promotion point is the
        miss where its counter first reaches ``promote_after`` —
        capacity never grows, so a run refused there is refused forever
        — and admission replays the candidates in stream order against
        the running capacity, exactly as the scalar loop would.
        ``runs`` indexes the stream's runs (built from the stream when
        not given); unindexable streams (inconsistent lengths, access
        outside its run) fall back to the per-miss loop.
        """
        n = int(len(vpns))
        if n == 0:
            return (0, 0)
        if runs is None:
            runs = RunIndex.from_stream(vpns, run_starts, run_lens)
        if runs is None:
            rest = flex = 0
            for v, s, ln in zip(
                np.asarray(vpns).tolist(),
                np.asarray(run_starts).tolist(),
                np.asarray(run_lens).tolist(),
            ):
                if self.on_miss(v, s, ln) == REST_HIT:
                    rest += 1
                else:
                    flex += 1
            return (rest, flex)

        # Distinct runs in first-touch order, each with its walks.
        rows, order, begins, ends = runs.groups
        rest = flex = 0
        candidates = []  # (promotion stream position, run_start, run_len, size, need)
        for start, length, lo, size in zip(
            runs.starts[rows].tolist(),
            runs.lens[rows].tolist(),
            begins.tolist(),
            (ends - begins).tolist(),
        ):
            if start in self._promoted:
                rest += size
                continue
            c0 = self._miss_counts.get(start, 0)
            # A run already past the threshold was refused for capacity
            # before; capacity is monotone, so it re-candidates at its
            # first miss and is refused again — need clamps to 1.
            need = max(1, self.promote_after - c0)
            if need > size:
                # Never reaches the threshold in this batch.
                flex += size
                self._miss_counts[start] = c0 + size
                continue
            # Insert the key now so ``_miss_counts`` keeps first-touch
            # order (the admission loop below only updates values).
            self._miss_counts[start] = c0
            # ``order`` lists each run's walks in stream order.
            candidates.append(
                (int(order[lo + need - 1]), start, length, size, need)
            )

        # Admit candidates in stream order against the running capacity.
        for pos, start, length, size, need in sorted(candidates):
            c0 = self._miss_counts.get(start, 0)
            if 0 < length <= self.free_pages:
                self._promoted[start] = length
                self.free_pages -= length
                self.stats.promotions += 1
                self.stats.promoted_pages += length
                # The promoting miss itself is still a flexible walk;
                # counting stops at the threshold.
                self._miss_counts[start] = c0 + need
                flex += need
                rest += size - need
            else:
                self._miss_counts[start] = c0 + size
                flex += size

        self.stats.rest_hits += rest
        self.stats.flex_walks += flex
        return (rest, flex)
