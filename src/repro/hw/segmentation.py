"""Per-VM base/limit segmentation baseline (Teabe et al.).

Full segmentation for virtualized systems (arXiv 2006.00380) gives
each VM a handful of contiguous physical segments; an address inside a
segment translates with one base+limit computation — no walk at all —
and anything the segments cannot absorb falls back to nested paging.

The model: the unit of placement is an effective 2D contiguity run.
The first miss to an unseen run tries to absorb it into the VM's
segment set — growing an existing segment when the run overlaps or
abuts one, else claiming a fresh segment while fewer than
``max_segments`` exist.  A run that cannot be absorbed at first touch
is *rejected permanently* (segments only ever grow over neighbouring
space, they are never re-packed around scattered mappings), so every
later miss to it pays the nested 4K walk — the same residual-overhead
accounting DS gets for out-of-segment accesses.

First-touch-decides makes the scheme batch-exact: an access's outcome
depends only on its run's absorbed/rejected status, which
:meth:`SegmentationUnit.on_miss_batch` resolves by replaying just the
*distinct* runs (in first-appearance order, grouped by the stream's
:class:`~repro.hw.translation.RunIndex`) through the scalar classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.translation import RunIndex

INSIDE = "inside"
GROW = "grow"
FILL = "fill"
OUTSIDE = "outside"


@dataclass
class SegStats:
    """Segmentation counters."""

    inside: int = 0
    grows: int = 0
    fills: int = 0
    outside: int = 0

    @property
    def total(self) -> int:
        return self.inside + self.grows + self.fills + self.outside


class SegmentationUnit:
    """Base/limit segment set with first-touch run placement."""

    def __init__(self, max_segments: int = 16):
        if max_segments < 1:
            raise ValueError(f"need at least one segment, got {max_segments}")
        self.max_segments = max_segments
        #: ``[start, end)`` per segment, in creation order; grown in place.
        self._segments: list[list[int]] = []
        #: run_start -> segment index, in first-touch order.
        self._assigned: dict[int, int] = {}
        #: Permanently rejected run starts, in rejection order.
        self._rejected: dict[int, None] = {}
        self.stats = SegStats()

    def on_miss(self, vpn: int, run_start: int, run_len: int) -> str:
        """One last-level TLB miss; OUTSIDE pays the fallback walk."""
        if run_start in self._assigned:
            self.stats.inside += 1
            return INSIDE
        if run_start in self._rejected:
            self.stats.outside += 1
            return OUTSIDE
        run_end = run_start + max(1, run_len)
        for k, seg in enumerate(self._segments):
            if run_start <= seg[1] and run_end >= seg[0]:
                # Overlaps or abuts: grow the segment over the run.
                seg[0] = min(seg[0], run_start)
                seg[1] = max(seg[1], run_end)
                self._assigned[run_start] = k
                self.stats.grows += 1
                return GROW
        if len(self._segments) < self.max_segments:
            self._segments.append([run_start, run_end])
            self._assigned[run_start] = len(self._segments) - 1
            self.stats.fills += 1
            return FILL
        self._rejected[run_start] = None
        self.stats.outside += 1
        return OUTSIDE

    # -- batched miss path (what MmuSimulator replays) -----------------------

    def on_miss_batch(
        self,
        vpns: np.ndarray,
        run_starts: np.ndarray,
        run_lens: np.ndarray,
        runs: RunIndex | None = None,
    ) -> tuple[int, int, int, int]:
        """Batched :meth:`on_miss`; returns (inside, grows, fills, outside).

        Outcomes depend only on each run's first touch, which this
        replays through the scalar classifier (preserving stream order
        among distinct runs) — later accesses to the same run are
        INSIDE if it was absorbed, OUTSIDE if not.  Scalar state
        (segment geometry, assignment and rejection orders) is touched
        only by those first-touch calls, so it ends bit-identical by
        construction.  ``runs`` indexes the stream's runs (built from
        the stream when not given); unindexable streams fall back to
        the per-miss loop.
        """
        n = int(len(vpns))
        if n == 0:
            return (0, 0, 0, 0)
        if runs is None:
            runs = RunIndex.from_stream(vpns, run_starts, run_lens)
        if runs is None:
            counts = {INSIDE: 0, GROW: 0, FILL: 0, OUTSIDE: 0}
            for v, s, ln in zip(
                np.asarray(vpns).tolist(),
                np.asarray(run_starts).tolist(),
                np.asarray(run_lens).tolist(),
            ):
                counts[self.on_miss(v, s, ln)] += 1
            return (counts[INSIDE], counts[GROW], counts[FILL], counts[OUTSIDE])

        # Distinct runs in first-touch order, each with its walks.
        rows, order, begins, ends = runs.groups
        first_vpns = np.asarray(vpns)[order[begins]].tolist()
        inside = grows = fills = outside = 0
        for start, length, vpn, size in zip(
            runs.starts[rows].tolist(),
            runs.lens[rows].tolist(),
            first_vpns,
            (ends - begins).tolist(),
        ):
            if start in self._assigned:
                self.stats.inside += size
                inside += size
                continue
            if start in self._rejected:
                self.stats.outside += size
                outside += size
                continue
            outcome = self.on_miss(vpn, start, length)
            if outcome == GROW:
                grows += 1
            elif outcome == FILL:
                fills += 1
            else:
                outside += 1
            if outcome == OUTSIDE:
                self.stats.outside += size - 1
                outside += size - 1
            else:
                self.stats.inside += size - 1
                inside += size - 1
        return (inside, grows, fills, outside)
