"""The fixed-bucket latency :class:`Histogram` behind ``/metrics``.

The cache-tier server (:mod:`repro.serve`) observes each request's
latency into a :class:`Histogram` and renders it in the Prometheus text
format: cumulative ``le`` buckets plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import bisect
import math


#: Default latency buckets (seconds): 1 ms .. 10 s, roughly log-spaced.
#: Cache-tier GETs sit in the first few buckets; multi-megabyte
#: checkpoint PUTs land further out.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram with cumulative counts.

    Observations land in the first bucket whose upper bound is >= the
    value; values beyond the last bound land in an implicit ``+Inf``
    overflow bucket.  Shaped so a Prometheus-style exporter can render
    it directly (cumulative ``le`` buckets plus ``sum``/``count``) and
    cheap enough to observe per request.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        value = max(0.0, float(value))
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last."""
        out = []
        running = 0
        for bound, n in zip(self.bounds + (math.inf,), self.counts):
            running += n
            out.append((bound, running))
        return out
