"""The fixed-bucket histogram behind the cache tier's ``/metrics``."""

import math

import pytest

from repro.metrics.profiling import Histogram


class TestHistogram:
    def test_observations_bucketed_cumulatively(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.cumulative() == [
            (1.0, 1), (2.0, 2), (4.0, 3), (math.inf, 4),
        ]

    def test_negative_clamps_to_zero(self):
        h = Histogram(buckets=(1.0,))
        h.observe(-3.0)
        assert h.total == 0.0
        assert h.count == 1

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
