"""Prometheus text exposition from the serve metrics registry."""

import pytest

from repro.serve.metrics import Counter, HistogramMetric, Registry


class TestCounter:
    def test_unlabeled(self):
        c = Counter("x_total", "things")
        c.inc()
        c.inc(n=2)
        assert c.total() == 3
        assert "x_total 3" in c.render()

    def test_labeled_breakout(self):
        c = Counter("http_total", "by code", label="code")
        c.inc("200", 5)
        c.inc("503")
        text = c.render()
        assert 'http_total{code="200"} 5' in text
        assert 'http_total{code="503"} 1' in text
        assert c.get("200") == 5
        assert c.get("404") == 0

    def test_renders_zero_when_untouched(self):
        assert "x_total 0" in Counter("x_total", "h").render()


class TestHistogramMetric:
    def test_exposition_shape(self):
        h = HistogramMetric("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = h.render()
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert "lat_seconds_sum 5.05" in text


class TestRegistry:
    def test_render_all_metrics_with_metadata(self):
        reg = Registry()
        reg.counter("a_total", "a help")
        reg.counter("b_total", "b help", label="site").inc("x", 2)
        text = reg.render()
        assert "# HELP a_total a help" in text
        assert "# TYPE a_total counter" in text
        assert 'b_total{site="x"} 2' in text
        assert text.endswith("\n")

    def test_duplicate_names_rejected(self):
        reg = Registry()
        reg.counter("a", "h")
        with pytest.raises(ValueError):
            reg.counter("a", "again")
