"""Lightweight wall-clock timing hooks for the simulation engine.

The bench harness (``python -m repro bench``) wraps each phase in a
:class:`Timer` / :class:`Profiler` section and derives throughput rates
from the recorded seconds and event counts; the cache-tier server
(:mod:`repro.serve`) exports its request latency through the
fixed-bucket :class:`Histogram`.  Kept
dependency-free and cheap enough to leave enabled in experiment code.
"""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: float | None = None

    def __enter__(self) -> "Timer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += perf_counter() - self._started
        self._started = None


@dataclass
class Profiler:
    """Named timing sections with event counts and derived rates."""

    seconds: dict[str, float] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def section(self, name: str):
        """Time a block under ``name`` (accumulates across entries)."""
        started = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - started)

    def add(self, name: str, seconds: float, events: int = 0) -> None:
        """Record time (and optionally an event count) for a section."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        if events:
            self.events[name] = self.events.get(name, 0) + events

    def count(self, name: str, events: int) -> None:
        """Add events to a section without adding time."""
        self.events[name] = self.events.get(name, 0) + events

    def rate(self, name: str) -> float:
        """Events per second for a section.

        A section can legitimately record zero (or sub-tick) seconds —
        warm-cache paths finish inside one ``perf_counter`` tick —
        and a section counted via :meth:`count` may never be timed at
        all.  Both report ``0.0`` rather than dividing by zero; the
        result is always finite.
        """
        seconds = self.seconds.get(name, 0.0)
        if not seconds > 0.0 or not math.isfinite(seconds):
            return 0.0
        return self.events.get(name, 0) / seconds

    def as_dict(self) -> dict:
        """JSON-ready summary: per-section seconds, events, rates.

        Covers every section that recorded *either* time or events, so
        count-only sections (zero duration) still appear instead of
        silently dropping out of reports.
        """
        names = list(self.seconds) + [
            n for n in self.events if n not in self.seconds
        ]
        return {
            name: {
                "seconds": round(self.seconds.get(name, 0.0), 6),
                "events": self.events.get(name, 0),
                "per_second": round(self.rate(name), 1),
            }
            for name in names
        }


#: Default latency buckets (seconds): 1 ms .. 10 s, roughly log-spaced.
#: Cache-tier GETs sit in the first few buckets; multi-megabyte
#: checkpoint PUTs land further out.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram with cumulative counts and quantiles.

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

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0..1); 0.0 when empty.

        Interpolates linearly inside the bucket holding the quantile;
        observations in the overflow bucket report the largest finite
        bound (the estimate saturates rather than returning ``inf``).
        """
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * self.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.bounds, self.counts):
            if n:
                if running + n >= target:
                    return lower + (bound - lower) * (
                        (target - running) / n
                    )
                running += n
            lower = bound
        return self.bounds[-1]

    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-ready summary with common latency percentiles."""
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean(), 6),
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
        }
