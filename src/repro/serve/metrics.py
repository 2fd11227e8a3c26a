"""Prometheus-style metrics registry for the cache-tier server.

Text exposition only (the ``0.0.4`` format every Prometheus scraper
speaks), stdlib only, and deliberately tiny: counters and a histogram
wrapping :class:`repro.metrics.profiling.Histogram`.  Metrics support
at most one label — enough for ``{endpoint=...}`` / ``{code=...}``
breakdowns without growing a label-set engine.

All mutation happens on the server's single event-loop thread, so no
locking is needed; clients and tests read via ``/metrics``.
"""

from __future__ import annotations

import math

from repro.metrics.profiling import DEFAULT_BUCKETS, Histogram


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats as repr."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


class Metric:
    """Base: a named metric with HELP/TYPE metadata and one label."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label: str = ""):
        self.name = name
        self.help = help
        self.label = label

    def samples(self) -> list[tuple[str, str, float]]:
        """``(suffix, label_value, value)`` rows; overridden."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, label_value, value in self.samples():
            labels = (
                f'{{{self.label}="{_escape(label_value)}"}}'
                if self.label and label_value != ""
                else ""
            )
            lines.append(f"{self.name}{suffix}{labels} {_fmt(value)}")
        return "\n".join(lines)


class Counter(Metric):
    """Monotonic counter, optionally broken out by one label value."""

    kind = "counter"

    def __init__(self, name: str, help: str, label: str = ""):
        super().__init__(name, help, label)
        self.values: dict[str, float] = {}

    def inc(self, label_value: str = "", n: float = 1) -> None:
        self.values[label_value] = self.values.get(label_value, 0) + n

    def get(self, label_value: str = "") -> float:
        return self.values.get(label_value, 0)

    def total(self) -> float:
        return sum(self.values.values())

    def samples(self) -> list[tuple[str, str, float]]:
        if not self.values:
            return [("", "", 0)]
        return [("", lv, v) for lv, v in sorted(self.values.items())]


class HistogramMetric(Metric):
    """Cumulative-bucket histogram in Prometheus exposition shape."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.hist = Histogram(buckets)

    def observe(self, value: float) -> None:
        self.hist.observe(value)

    def samples(self) -> list[tuple[str, str, float]]:
        raise NotImplementedError  # histogram renders its own rows

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for bound, cum in self.hist.cumulative():
            lines.append(f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cum}')
        lines.append(f"{self.name}_sum {_fmt(round(self.hist.total, 6))}")
        lines.append(f"{self.name}_count {self.hist.count}")
        return "\n".join(lines)


class Registry:
    """Orders metrics and renders the full exposition page."""

    def __init__(self) -> None:
        self.metrics: dict[str, Metric] = {}

    def add(self, metric: Metric) -> Metric:
        if metric.name in self.metrics:
            raise ValueError(f"duplicate metric {metric.name!r}")
        self.metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str, label: str = "") -> Counter:
        return self.add(Counter(name, help, label))

    def histogram(self, name: str, help: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> HistogramMetric:
        return self.add(HistogramMetric(name, help, buckets))

    def render(self) -> str:
        return "\n".join(m.render() for m in self.metrics.values()) + "\n"
