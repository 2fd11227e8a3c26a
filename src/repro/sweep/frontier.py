"""Metric extraction and exact Pareto frontiers for sweep results.

Each grid point's two cell results — a :class:`~repro.sim.results
.RunResult` (bloat, contiguity, run sizes) and the
:class:`~repro.hw.mmu_sim.MmuSimResult` list (TLB counters, scheme
overheads) — reduce to one plain metrics dict.  The frontier is the
paper's trade-off made queryable: **translation overhead** (the
scheme's Table IV model output, fraction of ideal execution time)
against **memory bloat** (frames allocated beyond what the workload
touched, fraction of touched), both minimized.

Everything here returns plain dicts/lists of JSON primitives with
deterministic ordering, so a sweep body serialized with
``json.dumps(sort_keys=True)`` is byte-identical however the cells
were scheduled.
"""

from __future__ import annotations

from typing import Sequence

from repro.hw.walk import WalkLatencyModel
from repro.metrics.perf_model import WalkCosts
from repro.sweep.grid import GridPoint

#: CDF resolution: coverage is reported at these mapping counts (the
#: paper's "99% coverage needs N mappings" axis, log-spaced).
CDF_MAPPING_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def walk_costs() -> WalkCosts:
    """The Table IV walk-cost model shared by every sweep point."""
    return WalkLatencyModel().walk_costs()


def point_metrics(point: GridPoint, native, sims,
                  costs: WalkCosts | None = None) -> dict:
    """Reduce one grid point's cell results to a flat metrics dict.

    ``native`` is the RunResult of the placement run; ``sims`` the
    MmuSimResult list of the simulation cell (the sweep cell requests a
    single default-granularity view).  The scheme axis selects which
    overhead column to read; every other metric is scheme-independent.
    """
    sim = sims[0]
    overheads = sim.overheads(costs or walk_costs())
    if point.scheme not in overheads:
        raise KeyError(f"scheme {point.scheme!r} not in {sorted(overheads)}")
    touched = max(1, native.touched_pages)
    metrics = {
        "point": point.as_dict(),
        "label": point.label,
        "overhead": _r(overheads[point.scheme]),
        "overheads": {k: _r(v) for k, v in sorted(overheads.items())},
        "bloat_pages": int(native.bloat_pages),
        "bloat_fraction": _r(native.bloat_pages / touched),
        "touched_pages": int(native.touched_pages),
        "resident_pages": int(native.resident_pages),
        "coverage_32": _r(native.final.coverage_32),
        "coverage_128": _r(native.final.coverage_128),
        "mappings_99": int(native.final.mappings_99),
        "total_runs": int(native.final.total_runs),
        "walks": int(sim.walks),
        "accesses": int(sim.accesses),
        "miss_rate": _r(sim.miss_rate),
    }
    if point.scheme == "spot":
        metrics["spot_breakdown"] = {
            k: _r(v) for k, v in sorted(sim.spot_breakdown().items())
        }
    walks = max(1, sim.walks)
    if point.scheme == "ctlb":
        metrics["ctlb_coverage"] = _r(1.0 - sim.ctlb_uncovered / walks)
    elif point.scheme == "utopia":
        metrics["utopia_rest_fraction"] = _r(sim.utopia_rest / walks)
    elif point.scheme == "seg":
        metrics["seg_coverage"] = _r(1.0 - sim.seg_outside / walks)
    return metrics


def _r(value: float, digits: int = 9) -> float:
    """Round a float for stable JSON (kills 1e-17 scheduling noise
    without losing real resolution — overheads live around 1e-4..1)."""
    return round(float(value), digits)


def pareto_frontier(metrics: Sequence[dict],
                    x: str = "overhead",
                    y: str = "bloat_fraction") -> list[dict]:
    """The exact non-dominated subset, minimizing ``x`` and ``y``.

    A point is dominated when some other point is no worse on both
    objectives and strictly better on at least one.  Exactly-equal
    points are mutually non-dominating, so duplicates all survive —
    the frontier reports *configurations*, not just coordinates.
    Returned in ascending (x, y, label) order.  The dominance test is
    the literal pairwise definition: grids cap at 512 points, so
    exactness beats cleverness.
    """
    ordered = sorted(metrics, key=lambda m: (m[x], m[y], m["label"]))
    return [
        m for m in ordered
        if not any(
            q[x] <= m[x] and q[y] <= m[y]
            and (q[x] < m[x] or q[y] < m[y])
            for q in ordered
        )
    ]


def contiguity_cdf(native) -> list[dict]:
    """Coverage CDF of a run's final mapping sizes.

    ``native.run_sizes`` is the final mapping-run size list (pages,
    descending); the CDF answers "what fraction of the footprint do the
    K largest mappings cover" at the fixed K grid — the queryable form
    of the paper's 99%-coverage metric.
    """
    sizes = sorted((int(s) for s in native.run_sizes), reverse=True)
    footprint = max(1, int(native.touched_pages))
    out = []
    covered = 0
    k = 0
    for count in CDF_MAPPING_COUNTS:
        while k < len(sizes) and k < count:
            covered += sizes[k]
            k += 1
        out.append({
            "mappings": count,
            "coverage": _r(min(1.0, covered / footprint)),
        })
        if k >= len(sizes) and covered >= footprint:
            break
    return out


def walk_cycle_summary(sims, costs: WalkCosts | None = None) -> dict:
    """Walk-path cost summary of one simulation cell (plain dict)."""
    sim = sims[0]
    model_costs = costs or walk_costs()
    return {
        "accesses": int(sim.accesses),
        "l1_hits": int(sim.l1_hits),
        "l2_hits": int(sim.l2_hits),
        "walks": int(sim.walks),
        "miss_rate": _r(sim.miss_rate),
        "native_thp_walk_cycles": _r(model_costs.native_thp),
        "native_4k_walk_cycles": _r(model_costs.native_4k),
        "nested_thp_walk_cycles": _r(model_costs.nested_thp),
        "nested_4k_walk_cycles": _r(model_costs.nested_4k),
    }
