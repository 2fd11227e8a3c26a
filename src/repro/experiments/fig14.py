"""Fig. 14: SpOT prediction breakdown per workload.

For every last-level TLB miss under CA+CA virtualized execution:
fraction predicted correctly, mispredicted, or not predicted (the
confidence counters declined to speculate).  Alongside, the same miss
stream's coverage under the other run-exploiting schemes (vRMM ranges,
coalesced-TLB entries, Utopia's RestSeg, the segmentation baseline) —
all read off the same simulation cells.

Paper shapes: correct predictions exceed 99% for PageRank; the worst
misprediction rate belongs to hashjoin's random probes and stays in the
single digits; irregular workloads show up as *no-prediction* mass
(the thrash filter and confidence counters doing their job), not as
pipeline flushes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import common
from repro.sim.config import HardwareConfig, ScaleProfile
from repro.sim.jobs import Executor, Plan

TRACE_LEN = 200_000


@dataclass
class Fig14Result:
    """Per-workload (correct, mispredict, no_prediction) fractions."""

    breakdown: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Per-workload miss-coverage fraction of each run-exploiting
    #: scheme on the same CA+CA miss stream (vrmm/ctlb/seg: covered
    #: misses; utopia: restrictive-region hits).
    scheme_coverage: dict[str, dict[str, float]] = field(default_factory=dict)

    def correct(self, workload: str) -> float:
        return self.breakdown[workload]["correct"]

    def mispredict(self, workload: str) -> float:
        return self.breakdown[workload]["mispredict"]

    def report(self) -> str:
        rows = []
        for wl, b in self.breakdown.items():
            cov = self.scheme_coverage.get(wl, {})
            rows.append(
                (
                    wl,
                    common.pct(b["correct"]),
                    common.pct(b["mispredict"]),
                    common.pct(b["no_prediction"]),
                    common.pct(cov.get("vrmm", 0.0)),
                    common.pct(cov.get("ctlb", 0.0)),
                    common.pct(cov.get("utopia", 0.0)),
                    common.pct(cov.get("seg", 0.0)),
                )
            )
        return common.format_table(
            (
                "workload", "correct", "mispredict", "no prediction",
                "vrmm cov", "ctlb cov", "utopia rest", "seg cov",
            ),
            rows,
        )

    def chart(self) -> str:
        """The figure itself: stacked outcome bars per workload."""
        from repro.experiments.charts import stacked_fraction_chart

        labels = list(self.breakdown)
        parts = {
            outcome: [self.breakdown[wl][outcome] for wl in labels]
            for outcome in ("correct", "mispredict", "no_prediction")
        }
        return stacked_fraction_chart(
            labels, parts, title="Fig 14: SpOT outcomes per TLB miss"
        )


def plan(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
) -> Plan:
    """The CA+CA chain — identical to fig 13's scheme chain and
    Table VII's counter source, so the cache computes it once: one
    checkpointed stage cell per workload."""
    scale = scale or common.DEFAULT_SCALE
    hw = hw or HardwareConfig()
    workloads = tuple(workloads)
    cells = common.stage_cells(
        "repro.experiments.common:run_cell_virt_sim_stage",
        workloads,
        host_policy="ca",
        guest_policy="ca",
        scale=scale,
        hw=hw,
        trace_len=trace_len,
    )

    def assemble(results) -> Fig14Result:
        chain = common.stage_payloads(results)
        out = Fig14Result()
        for name, (sim,) in zip(workloads, chain):
            out.breakdown[name] = sim.spot_breakdown()
            walks = max(1, sim.walks)
            out.scheme_coverage[name] = {
                "vrmm": 1.0 - sim.rmm_uncovered / walks,
                "ctlb": 1.0 - sim.ctlb_uncovered / walks,
                "utopia": sim.utopia_rest / walks,
                "seg": 1.0 - sim.seg_outside / walks,
            }
        return out

    return Plan(cells, assemble)


def run(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
    executor: Executor | None = None,
) -> Fig14Result:
    """CA+CA virtualized states, SpOT outcome counting."""
    return plan(scale, workloads, hw, trace_len).run(executor)


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(result.report())
    print()
    print(result.chart())


if __name__ == "__main__":  # pragma: no cover
    main()
