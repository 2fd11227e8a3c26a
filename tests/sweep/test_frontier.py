"""Pareto exactness, metric extraction and CDF shape — all on fakes."""

import json

import pytest

from repro.sweep.frontier import (
    contiguity_cdf,
    pareto_frontier,
    point_metrics,
    walk_costs,
    walk_cycle_summary,
)
from repro.sweep.grid import SCHEMES, GridPoint
from tests.sweep.fakes import toy_native, toy_sim


def m(label: str, x: float, y: float) -> dict:
    return {"label": label, "overhead": x, "bloat_fraction": y}


class TestParetoFrontier:
    def test_dominated_points_drop(self):
        front = pareto_frontier([
            m("a", 0.1, 0.5), m("b", 0.5, 0.1),
            m("dominated", 0.5, 0.5), m("worst", 0.9, 0.9),
        ])
        assert [p["label"] for p in front] == ["a", "b"]

    def test_single_best_dominates_all(self):
        front = pareto_frontier([
            m("best", 0.1, 0.1), m("a", 0.2, 0.2), m("b", 0.3, 0.15),
        ])
        assert [p["label"] for p in front] == ["best"]

    def test_duplicates_all_survive(self):
        front = pareto_frontier([m("a", 0.2, 0.2), m("b", 0.2, 0.2)])
        assert [p["label"] for p in front] == ["a", "b"]

    def test_partial_tie_dominates(self):
        # Equal x, strictly better y: "lo" dominates "hi".
        front = pareto_frontier([m("hi", 0.2, 0.4), m("lo", 0.2, 0.1)])
        assert [p["label"] for p in front] == ["lo"]

    def test_ordering_is_ascending_xy(self):
        front = pareto_frontier([
            m("right", 0.9, 0.0), m("left", 0.0, 0.9), m("mid", 0.4, 0.4),
        ])
        assert [p["label"] for p in front] == ["left", "mid", "right"]

    def test_empty(self):
        assert pareto_frontier([]) == []


class TestPointMetrics:
    def test_extraction(self):
        native = toy_native(workload="w", policy="p1")
        sims = toy_sim(workload="w", policy="p1")
        point = GridPoint(policy="p1", scheme="vrmm", workload="w")
        out = point_metrics(point, native, sims, walk_costs())
        assert out["label"] == "w/p1/vrmm"
        assert out["overhead"] == out["overheads"]["vrmm"]
        assert set(out["overheads"]) == set(SCHEMES)
        assert out["bloat_fraction"] == pytest.approx(
            native.bloat_pages / native.touched_pages
        )
        assert out["mappings_99"] == 63
        assert "spot_breakdown" not in out
        json.dumps(out)  # fully serializable

    def test_spot_carries_breakdown(self):
        point = GridPoint(policy="p0", scheme="spot", workload="w")
        out = point_metrics(point, toy_native(workload="w", policy="p0"),
                            toy_sim(workload="w", policy="p0"))
        assert out["spot_breakdown"] == {"l1_range_hits": 0.75,
                                         "l2_walks": 0.25}

    def test_unknown_scheme_raises(self):
        point = GridPoint(policy="p0", scheme="telepathy", workload="w")
        with pytest.raises(KeyError):
            point_metrics(point, toy_native(workload="w", policy="p0"),
                          toy_sim(workload="w", policy="p0"))


class TestContiguityCdf:
    def test_monotonic_and_capped(self):
        cdf = contiguity_cdf(toy_native(workload="w", policy="p0"))
        coverages = [row["coverage"] for row in cdf]
        assert coverages == sorted(coverages)
        assert all(0.0 <= c <= 1.0 for c in coverages)
        # 600/1000 covered by the single largest mapping.
        assert cdf[0] == {"mappings": 1, "coverage": 0.6}

    def test_stops_once_fully_covered(self):
        native = toy_native(workload="w", policy="p0")
        native.run_sizes = (1000,)
        cdf = contiguity_cdf(native)
        assert cdf[-1]["coverage"] == 1.0
        assert len(cdf) == 1  # no padded tail after full coverage


class TestWalkCycleSummary:
    def test_summary_fields(self):
        sims = toy_sim(workload="w", policy="p2")
        out = walk_cycle_summary(sims, walk_costs())
        assert out["walks"] == 40
        assert out["native_4k_walk_cycles"] > 0
