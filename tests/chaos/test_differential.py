"""Differential chaos: faults may cost retries, never change bytes.

Runs the same cell grid clean and under ``FaultPlan.uniform(0.2)``
across several seeds, through one shared cache directory, and asserts
the canonical JSON of the results is byte-identical every time, with
zero unhandled exceptions and every fired fault recovered.

:class:`TestSuiteGridUnderFaults` makes the same claim end to end on a
real experiment grid (fig 9 at quick scale, through
:func:`repro.cli.run_suite_grid`): under cache faults against one
shared cache directory, and from a copy of that directory.
"""

import json
import shutil

import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.cli import SCALES, run_suite_grid
from repro.sim.cache import RunCache
from repro.sim.jobs import Executor, Plan, cell, run_plans

MIX = "tests.chaos.test_differential:_mix"

#: Sites a single-process executor grid actually passes through.
GRID_SITES = ("cache.read", "cache.write", "pool.submit", "pool.worker",
              "clock")


def _mix(*, a, b):
    # Non-trivial but pure: floats exercise exact byte comparison.
    return {"sum": a + b, "ratio": a / b, "tag": f"{a}/{b}"}


def grid_plans():
    return [
        Plan([cell(MIX, a=a, b=b) for b in (2, 3, 5)],
             assemble=lambda rs: list(rs))
        for a in (1, 4, 9, 16)
    ]


def canonical(results) -> bytes:
    return json.dumps(results, sort_keys=True,
                      separators=(",", ":")).encode()


def run_grid(cache_dir, injector=None, jobs=1):
    cache = RunCache(cache_dir, salt="diff", injector=injector)
    executor = Executor(jobs=jobs, cache=cache, injector=injector,
                        max_attempts=8, backoff_base=0.001)
    return canonical(run_plans(grid_plans(), executor))


class TestDifferentialChaos:
    def test_chaos_results_are_byte_identical_to_clean(self, tmp_path):
        cache_dir = tmp_path / "cache"
        clean = run_grid(cache_dir)          # cold: populates the cache
        assert run_grid(cache_dir) == clean  # warm clean

        total_fired = 0
        for seed in (0, 1, 2):
            injector = FaultInjector(
                FaultPlan.uniform(0.2, seed=seed, sites=GRID_SITES)
            )
            assert run_grid(cache_dir, injector) == clean, f"seed {seed}"
            assert injector.unrecovered() == [], f"seed {seed}"
            total_fired += len(injector.records)
            # Repair dropped writes so every seed starts warm.
            run_grid(cache_dir)
        # 0.2 across five sites and 12 cells: some seed must fire.
        assert total_fired > 0

    def test_chaos_through_the_pool_is_still_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        clean = run_grid(cache_dir)
        injector = FaultInjector(
            FaultPlan.uniform(0.2, seed=3, sites=GRID_SITES)
        )
        assert run_grid(cache_dir, injector, jobs=2) == clean
        assert injector.unrecovered() == []

    def test_same_seed_same_trace_different_seed_different_faults(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_grid(cache_dir)

        def trace_for(seed):
            injector = FaultInjector(
                FaultPlan.uniform(0.2, seed=seed, sites=GRID_SITES)
            )
            run_grid(cache_dir, injector)
            run_grid(cache_dir)  # repair
            return sorted((r.site, r.token, r.recovered)
                          for r in injector.records)

        seeds = {seed: trace_for(seed) for seed in (7, 8)}
        assert trace_for(7) == seeds[7]          # reproducible
        assert seeds[7] != seeds[8]              # seed actually matters


#: The real-experiment grid: cheap at quick scale, many cells.
SUITE_GRID = ["fig9"]
#: Every cache read corrupts its entry and every store is dropped —
#: deterministic whatever the cell keys hash to under the code salt —
#: and the pool sites stay clear so no retry budget can run out.
CACHE_FAULTS = (("cache.read", 1.0), ("cache.write", 1.0))


def suite_grid(cache_dir, injector=None):
    """One pass of :data:`SUITE_GRID`: (canonical bytes, its cache)."""
    cache = RunCache(cache_dir, injector=injector)
    with Executor(cache=cache, injector=injector) as executor:
        body, _ = run_suite_grid(SCALES["quick"], SUITE_GRID, executor)
    return body, cache


@pytest.fixture(scope="module")
def fig9_runs(tmp_path_factory):
    """A clean cold pass, then two cache-faulted passes, each with a
    fresh injector on the same plan and seed and each followed by a
    clean repair pass (the faulted pass quarantines every entry it
    reads and drops every store), so both start from, and leave, the
    same warm cache."""
    cache_dir = tmp_path_factory.mktemp("fig9") / "cache"
    clean, _ = suite_grid(cache_dir)
    faulted = []
    for _ in range(2):
        injector = FaultInjector(FaultPlan(CACHE_FAULTS, seed=1))
        body, _ = suite_grid(cache_dir, injector)
        suite_grid(cache_dir)
        faulted.append((body, injector))
    return cache_dir, clean, faulted


class TestSuiteGridUnderFaults:
    def test_grid_identity_and_trace_determinism(self, fig9_runs):
        _, clean, faulted = fig9_runs
        for body, injector in faulted:
            assert body == clean
            assert injector.unrecovered() == []
        (_, a), (_, b) = faulted
        assert sorted((r.site, r.token, r.recovered) for r in a.records) \
            == sorted((r.site, r.token, r.recovered) for r in b.records)

    def test_faults_actually_fired_and_were_recovered(self, fig9_runs):
        _, _, faulted = fig9_runs
        for _, injector in faulted:
            fired = injector.fired_by_site()
            assert fired["cache.read"] >= 1
            assert fired["cache.write"] >= 1
            assert {r.recovered for r in injector.records} <= {
                "quarantined", "already_miss", "dropped_write",
            }

    def test_copied_cache_dir_serves_every_cell(self, fig9_runs, tmp_path):
        # Sharing a cache is copying its directory: a copy of the warm
        # cache answers every cell of the grid with the same bytes.
        cache_dir, clean, _ = fig9_runs
        copy = tmp_path / "copy"
        shutil.copytree(cache_dir, copy)
        body, cache = suite_grid(copy)
        assert body == clean
        assert cache.misses == 0
        assert cache.hits > 0
