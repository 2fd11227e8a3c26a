"""Sweep outcomes through the archival paths (satellite coverage).

Sweeps lean on two older pieces of plumbing:
``experiments.serialize`` archives outcomes next to EXPERIMENTS.md and
``experiments.charts`` renders grid-shaped data in the terminal.  These
tests pin the contract the sweep layer now depends on: a full sweep
outcome round-trips byte-stably through save/load, and the charts
render policy x scheme grids without mangling shape.
"""

import json

import pytest

from repro.experiments.charts import (
    bar_chart,
    grouped_bar_chart,
    stacked_fraction_chart,
)
from repro.experiments.serialize import (
    load_result,
    save_result,
    to_jsonable,
)
from repro.sim.jobs import Executor
from repro.sweep.grid import GridPoint
from repro.sweep.runner import run_sweep
from tests.sweep.fakes import ToySpec


@pytest.fixture(scope="module")
def outcome() -> dict:
    executor = Executor(jobs=1)
    try:
        return run_sweep(ToySpec(), executor)[0]
    finally:
        executor.close()


class TestSerializeRoundTrip:
    def test_outcome_is_a_fixed_point(self, outcome):
        # A sweep outcome is already plain data: serialization must be
        # the identity, so archived and printed bytes never diverge.
        assert to_jsonable(outcome) == outcome

    def test_save_load_byte_stable(self, outcome, tmp_path):
        first = save_result(tmp_path / "sweep.json", "sweep", outcome,
                            scale="quick")
        loaded = load_result(first)
        assert loaded["experiment"] == "sweep"
        assert loaded["meta"] == {"scale": "quick"}
        assert loaded["result"] == outcome
        # Re-archiving the loaded payload changes nothing.
        second = save_result(tmp_path / "again.json", "sweep",
                             loaded["result"], scale="quick")
        assert first.read_bytes() == second.read_bytes()

    def test_grid_point_dataclass_serializes(self):
        point = GridPoint(policy="ca", scheme="spot", workload="svm")
        assert to_jsonable(point) == point.as_dict()

    def test_tuple_keyed_grid_flattens(self):
        # The (workload, policy) tuple keys the figure experiments use
        # flatten to the same "w|p" spelling sweep CDFs use natively.
        grid = {("svm", "ca"): 0.1, ("svm", "thp"): 0.2}
        out = to_jsonable(grid)
        assert out == {"svm|ca": 0.1, "svm|thp": 0.2}
        json.dumps(out)


class TestGridShapedCharts:
    def test_frontier_bar_chart(self, outcome):
        labels = [m["label"] for m in outcome["frontier"]]
        values = [m["overhead"] for m in outcome["frontier"]]
        chart = bar_chart(labels, values, title="frontier", log=True)
        lines = chart.splitlines()
        assert lines[0] == "frontier"
        assert lines[-1].endswith("(log scale)")
        assert len(lines) == len(labels) + 2
        for label in labels:
            assert any(label in line for line in lines)

    def test_policy_by_scheme_grouped_chart(self, outcome):
        # Pivot the flat cell list into a policy x scheme grid: one
        # group per policy, one series per scheme.
        policies = [f"p{i}" for i in range(3)]
        series = {
            scheme: [
                next(m["overhead"] for m in outcome["cells"]
                     if m["point"]["policy"] == policy
                     and m["point"]["scheme"] == scheme)
                for policy in policies
            ]
            for scheme in ("paging", "spot")
        }
        chart = grouped_bar_chart(policies, series, title="overheads")
        lines = chart.splitlines()
        assert lines[0] == "overheads"
        # One header line per group plus one bar line per series.
        assert sum(1 for l in lines if l.endswith(":")) == 3
        assert sum(1 for l in lines if "|" in l) == 3 * 2

    def test_source_breakdown_stacks_to_width(self):
        chart = stacked_fraction_chart(
            ["p0", "p1"],
            {"computed": [4, 0], "cached": [0, 4], "shared": [2, 2]},
            width=30,
        )
        bars = [l for l in chart.splitlines() if l.rstrip().endswith("|")]
        assert len(bars) == 2
        for bar in bars:
            fill = bar.split("| ", 1)[1].rstrip("|")
            assert len(fill) == 30
