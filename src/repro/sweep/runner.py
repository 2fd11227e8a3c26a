"""Sweep execution: run a grid's cells in one executor batch.

:func:`run_sweep` expands a :class:`~repro.sweep.grid.SweepSpec` into
its grid points and their deduplicated cells, runs every cell through
one :meth:`Executor.run <repro.sim.jobs.Executor.run>` call — the same
process pool and run cache the suite uses, so a repeated or
overlapping sweep recomputes nothing — and assembles the outcome.

The outcome is plain dicts whose canonical JSON is byte-identical
between serial (``jobs=1``) and parallel execution: cell results are
pure functions of their specs and all ordering below is input order,
never completion order.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.sim.jobs import Executor
from repro.sweep import frontier as frontier_mod
from repro.sweep.grid import SweepSpec


@dataclass
class SweepOutcomeStats:
    """Executor-side accounting of one sweep run (volatile: reported
    beside the outcome, never inside it)."""

    seconds: float
    submitted: int
    computed: int
    cache_hits: int
    deduped: int

    def as_dict(self) -> dict:
        return {
            "seconds": round(self.seconds, 3),
            "submitted": self.submitted,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
        }


def run_sweep(spec: SweepSpec, executor: Executor
              ) -> tuple[dict, SweepOutcomeStats]:
    """Run the grid; returns the canonical outcome and its stats."""
    points, cells, refs = spec.expand()
    before = dataclasses.replace(executor.stats)
    started = time.perf_counter()
    results = executor.run(cells)
    costs = frontier_mod.walk_costs()
    metrics = [
        frontier_mod.point_metrics(
            point, results[native_i], results[sim_i], costs
        )
        for point, (native_i, sim_i) in zip(points, refs)
    ]
    front = frontier_mod.pareto_frontier(metrics)
    cdfs: dict = {}
    walks: dict = {}
    for point, (native_i, sim_i) in zip(points, refs):
        key = f"{point.workload}|{point.policy}"
        if key not in cdfs:
            cdfs[key] = frontier_mod.contiguity_cdf(results[native_i])
            walks[key] = frontier_mod.walk_cycle_summary(
                results[sim_i], costs
            )
    outcome = {
        "sweep": spec.as_dict(),
        "points": len(points),
        "unique_cells": len(cells),
        "cells": metrics,
        "frontier": front,
        "frontier_labels": [m["label"] for m in front],
        "frontier_size": len(front),
        "contiguity_cdf": cdfs,
        "walk_cycles": walks,
    }
    after = executor.stats
    stats = SweepOutcomeStats(
        seconds=time.perf_counter() - started,
        submitted=after.submitted - before.submitted,
        computed=after.computed - before.computed,
        cache_hits=after.cache_hits - before.cache_hits,
        deduped=after.deduped - before.deduped,
    )
    return outcome, stats
