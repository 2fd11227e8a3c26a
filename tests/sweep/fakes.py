"""Shared fakes for the sweep tests.

The runner only needs a spec that expands to (points, cells, refs) and
cell results shaped like ``RunResult`` / ``[MmuSimResult]``, so these
toy stand-ins keep the unit tests off the real simulator.  Everything
lives at module level and is addressed by import path so the executor's
process pool (and the run cache's pickles) can resolve it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sweep.grid import GridPoint, SCHEMES

NATIVE = "tests.sweep.fakes:toy_native"
SIM = "tests.sweep.fakes:toy_sim"


@dataclass
class FakeFinal:
    coverage_32: float
    coverage_128: float
    mappings_99: int
    total_runs: int


@dataclass
class FakeNative:
    touched_pages: int
    bloat_pages: int
    resident_pages: int
    run_sizes: tuple
    final: FakeFinal


@dataclass
class FakeSim:
    accesses: int
    l1_hits: int
    l2_hits: int
    walks: int
    miss_rate: float
    base: float

    #: Per-scheme counters point_metrics reads for coverage extras.
    ctlb_uncovered: int = 10
    utopia_rest: int = 30
    seg_outside: int = 5

    def overheads(self, costs) -> dict:
        return {
            "paging": self.base,
            "spot": self.base / 2,
            "vrmm": self.base / 4,
            "ds": self.base / 8,
            "ctlb": self.base / 3,
            "utopia": self.base / 5,
            "seg": self.base / 1.5,
        }

    def spot_breakdown(self) -> dict:
        return {"l1_range_hits": 0.75, "l2_walks": 0.25}


def _rank(policy: str) -> int:
    """Deterministic per-policy knob (p0 -> 0, p1 -> 1, ...)."""
    return int("".join(ch for ch in policy if ch.isdigit()) or 0)


def toy_native(*, workload, policy, seed=0):
    r = _rank(policy)
    return FakeNative(
        touched_pages=1000,
        bloat_pages=100 * (3 - r),
        resident_pages=1000 + 100 * (3 - r),
        run_sizes=(600, 300, 50 + r, 25, 25),
        final=FakeFinal(
            coverage_32=0.9 + 0.01 * r,
            coverage_128=0.99,
            mappings_99=64 - r,
            total_runs=5,
        ),
    )


def toy_sim(*, workload, policy, trace_len=1000):
    r = _rank(policy)
    return [FakeSim(
        accesses=trace_len,
        l1_hits=trace_len - 100,
        l2_hits=60,
        walks=40,
        miss_rate=40 / trace_len,
        base=0.4 / (r + 1),
    )]


class ToySpec:
    """SweepSpec stand-in: same expand()/as_dict() surface, toy cells.

    The scheme axis fans out over shared cells exactly like the real
    spec: every scheme of one policy reads the same (native, sim) pair.
    """

    def __init__(self, policies=("p0", "p1", "p2"),
                 schemes=("paging", "spot"), workload="w",
                 trace_len=1000):
        self.policies = tuple(policies)
        self.schemes = tuple(schemes)
        assert set(self.schemes) <= set(SCHEMES)
        self.workload = workload
        self.trace_len = trace_len

    def as_dict(self) -> dict:
        return {
            "policies": list(self.policies),
            "schemes": list(self.schemes),
            "workloads": [self.workload],
            "trace_len": self.trace_len,
        }

    def points(self):
        return [
            GridPoint(policy=p, scheme=s, workload=self.workload)
            for p in self.policies for s in self.schemes
        ]

    def expand(self):
        from repro.sim.jobs import cell

        points = self.points()
        cells = []
        index = {}
        refs = []
        for point in points:
            pair = []
            for path, kwargs in (
                (NATIVE, {"workload": point.workload,
                          "policy": point.policy}),
                (SIM, {"workload": point.workload,
                       "policy": point.policy,
                       "trace_len": self.trace_len}),
            ):
                key = (path, tuple(sorted(kwargs.items())))
                if key not in index:
                    index[key] = len(cells)
                    cells.append(cell(path, **kwargs))
                pair.append(index[key])
            refs.append(tuple(pair))
        return points, cells, refs
