"""run_sweep execution: determinism, outcome shape, stats deltas.

Toy cells (tests.sweep.fakes) keep the runner under test without the
simulator; one integration test at the end runs a tiny real spec end
to end against a warm cache.
"""

import json

import pytest

from repro.sim.cache import RunCache
from repro.sim.jobs import Executor
from repro.sweep.runner import run_sweep
from tests.sweep.fakes import ToySpec


def canonical(outcome: dict) -> bytes:
    return json.dumps(outcome, sort_keys=True,
                      separators=(",", ":")).encode()


def run_toy(executor: Executor, **spec_kwargs) -> dict:
    outcome, _stats = run_sweep(ToySpec(**spec_kwargs), executor)
    return outcome


class TestDeterminism:
    def test_serial_and_parallel_bytes_match(self):
        serial = Executor(jobs=1)
        parallel = Executor(jobs=2)
        try:
            out1 = run_toy(serial)
            out2 = run_toy(parallel)
        finally:
            serial.close()
            parallel.close()
        assert canonical(out1) == canonical(out2)

    def test_outcome_shape(self):
        executor = Executor(jobs=1)
        try:
            out = run_toy(executor)
        finally:
            executor.close()
        assert out["points"] == 6  # 3 policies x 2 schemes
        assert out["unique_cells"] == 6  # (native, sim) per policy
        assert len(out["cells"]) == 6
        assert [m["label"] for m in out["cells"]] == [
            p.label for p in ToySpec().points()
        ]
        assert out["frontier_size"] == len(out["frontier"]) >= 1
        assert out["frontier_labels"] == [
            m["label"] for m in out["frontier"]
        ]
        assert set(out["contiguity_cdf"]) == {"w|p0", "w|p1", "w|p2"}
        assert set(out["walk_cycles"]) == {"w|p0", "w|p1", "w|p2"}


class TestRunSweepStats:
    def test_stats_deltas(self, tmp_path):
        executor = Executor(jobs=1, cache=RunCache(tmp_path))
        try:
            _, cold = run_sweep(ToySpec(), executor)
            _, warm = run_sweep(ToySpec(), executor)
        finally:
            executor.close()
        # One batch of the unique cells: each is submitted once.
        assert cold.submitted == 6
        assert cold.computed == 6
        assert warm.computed == 0
        assert warm.cache_hits == 6
        assert warm.as_dict()["computed"] == 0


class TestRealSpec:
    def test_tiny_real_grid_end_to_end(self, tmp_path):
        from repro.sweep.grid import SweepSpec

        spec = SweepSpec.from_request({
            "policies": ["thp"], "workloads": ["svm"],
            "scale": "quick", "trace_len": 2000,
        })
        executor = Executor(jobs=1, cache=RunCache(tmp_path))
        try:
            out1, cold = run_sweep(spec, executor)
            out2, warm = run_sweep(spec, executor)
        finally:
            executor.close()
        assert out1["points"] == 4  # one policy, all four schemes
        assert out1["unique_cells"] == 2
        assert cold.computed == 2
        assert warm.computed == 0
        assert canonical(out1) == canonical(out2)
        assert out1["frontier_size"] >= 1
        # The frontier minimizes overhead: the paging baseline can only
        # appear if it is also a bloat optimum, and every frontier
        # member's overhead column must exist in its overheads map.
        for member in out1["frontier"]:
            assert member["overhead"] == pytest.approx(
                member["overheads"][member["point"]["scheme"]]
            )
