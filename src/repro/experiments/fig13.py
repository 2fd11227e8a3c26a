"""Fig. 13: execution-time overheads of address translation.

Per workload, the full bar set:

- native 4K and native THP (performance-counter analogue: TLB sim on a
  native memory state),
- virtualized 4K+4K and THP+THP (nested paging),
- SpOT, vRMM and DS, all emulated on the CA+CA virtualized state, with
  the Table IV linear model on top.

Paper shapes: nested THP ~16.5% on average (up to ~28% for SVM); SpOT
cuts it to ~0.9%; vRMM < 0.1%; DS ~0; SpOT benefits least where CA
contiguity is stressed (BT's NUMA spill) or misses are irregular
(SVM's out-of-mapping tail, hashjoin's random probes).

The 4K bars come from the same memory state viewed at 4 KiB TLB-entry
granularity.  The trace is page-level, so 4K bars overstate absolute
overhead (every page touch is a distinct 4K entry); they are reported
for shape only — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import common
from repro.hw.mmu_sim import MmuSimResult
from repro.hw.walk import WalkLatencyModel
from repro.metrics.perf_model import WalkCosts
from repro.sim.config import HardwareConfig, ScaleProfile
from repro.sim.jobs import Executor, Plan, cell

#: Default trace length per configuration.
TRACE_LEN = 200_000

#: Bar names in figure order.  The last three extend the paper's
#: comparison with schemes it never measured: the run-coalescing TLB,
#: Utopia's hybrid mappings, and the segmentation baseline — all
#: emulated on the same CA+CA state and miss stream as SpOT/vRMM/DS.
BARS = (
    "4K", "THP", "4K+4K", "THP+THP",
    "SpOT", "vRMM", "DS", "cTLB", "Utopia", "Seg",
)


@dataclass
class Fig13Result:
    """Overheads per (workload, bar) plus raw sim counters."""

    overheads: dict[tuple[str, str], float] = field(default_factory=dict)
    sims: dict[tuple[str, str], MmuSimResult] = field(default_factory=dict)
    costs: WalkCosts = field(default_factory=WalkCosts)

    def mean(self, bar: str) -> float:
        vals = [v for (wl, b), v in self.overheads.items() if b == bar]
        return sum(vals) / len(vals)

    def report(self) -> str:
        workloads = sorted({wl for wl, _ in self.overheads})
        rows = []
        for wl in workloads:
            rows.append(
                [wl] + [common.pct(self.overheads[(wl, b)]) for b in BARS]
            )
        rows.append(["mean"] + [common.pct(self.mean(b)) for b in BARS])
        return common.format_table(["workload"] + list(BARS), rows)

    def chart(self) -> str:
        """The figure itself: per-workload bar panels (log scale)."""
        from repro.experiments.charts import grouped_bar_chart

        workloads = sorted({wl for wl, _ in self.overheads})
        series = {
            bar: [self.overheads[(wl, bar)] for wl in workloads]
            for bar in BARS
        }
        return grouped_bar_chart(
            workloads, series,
            title="Fig 13: translation overhead vs T_ideal", log=True,
        )


def plan(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
) -> Plan:
    """Declare the figure's cells.

    Native states are independent (fresh THP machine per workload); the
    two virtualized states are *chains* — each VM ages across the whole
    workload sequence as per-workload checkpointed stages the executor
    can pipeline and resume.  The CA+CA chain's stage cells are shared
    verbatim with fig 14 and Table VII.
    """
    scale = scale or common.DEFAULT_SCALE
    hw = hw or HardwareConfig()
    workloads = tuple(workloads)
    cells = [
        cell(
            "repro.experiments.common:run_cell_native_sim",
            workload=name,
            policy="thp",
            scale=scale,
            hw=hw,
            trace_len=trace_len,
            force_4k=(False, True),
        )
        for name in workloads
    ]
    cells += common.stage_cells(
        "repro.experiments.common:run_cell_virt_sim_stage",
        workloads,
        host_policy="thp",
        guest_policy="thp",
        scale=scale,
        hw=hw,
        trace_len=trace_len,
        force_4k=(False, True),
    )
    cells += common.stage_cells(
        "repro.experiments.common:run_cell_virt_sim_stage",
        workloads,
        host_policy="ca",
        guest_policy="ca",
        scale=scale,
        hw=hw,
        trace_len=trace_len,
    )

    def assemble(results) -> Fig13Result:
        costs = WalkLatencyModel().walk_costs()
        out = Fig13Result(costs=costs)
        n = len(workloads)
        native_sims = results[:n]
        thp_chain = common.stage_payloads(results[n:2 * n])
        ca_chain = common.stage_payloads(results[2 * n:3 * n])
        for i, name in enumerate(workloads):
            for bar, sim in zip(("THP", "4K"), native_sims[i]):
                out.sims[(name, bar)] = sim
                out.overheads[(name, bar)] = sim.overheads(costs)["paging"]
            for bar, sim in zip(("THP+THP", "4K+4K"), thp_chain[i]):
                out.sims[(name, bar)] = sim
                out.overheads[(name, bar)] = sim.overheads(costs)["paging"]
            (sim,) = ca_chain[i]
            schemes = sim.overheads(costs)
            out.sims[(name, "SpOT")] = sim
            out.overheads[(name, "SpOT")] = schemes["spot"]
            out.overheads[(name, "vRMM")] = schemes["vrmm"]
            out.overheads[(name, "DS")] = schemes["ds"]
            out.overheads[(name, "cTLB")] = schemes["ctlb"]
            out.overheads[(name, "Utopia")] = schemes["utopia"]
            out.overheads[(name, "Seg")] = schemes["seg"]
        return out

    return Plan(cells, assemble)


def run(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
    executor: Executor | None = None,
) -> Fig13Result:
    """Build memory states, run the TLB sims, apply the Table IV model."""
    return plan(scale, workloads, hw, trace_len).run(executor)


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(result.report())
    print()
    print(result.chart())


if __name__ == "__main__":  # pragma: no cover
    main()
