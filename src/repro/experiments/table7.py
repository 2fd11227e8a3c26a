"""Table VII: unsafe-load (USL) estimation for SpOT vs Spectre.

Applies the paper's two equations to the simulated counters of the
CA+CA virtualized runs: SpOT opens a speculative window per DTLB miss
(long: the nested walk, ~81 cycles) while branch prediction opens one
per branch (short: ~20 cycles) — but branches are ~20x more frequent,
so SpOT's unsafe-load mass stays well below Spectre's, and mitigations
sized for Spectre (InvisiSpec, ~5% for 16.5% USLs) cover SpOT for < 2%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import common
from repro.hw.walk import WalkLatencyModel
from repro.metrics.usl import UslEstimate, estimate_usl
from repro.sim.config import HardwareConfig, ScaleProfile
from repro.sim.jobs import Executor, Plan

TRACE_LEN = 200_000
#: Fraction of instructions that are loads (typical integer mix).
LOAD_FRACTION = 0.25
#: Effective CPI including cache/memory stalls (loads-per-cycle uses
#: real execution time, not the ideal-CPI denominator of Table IV).
EFFECTIVE_CPI = 1.2


@dataclass
class Table7Result:
    """Per-workload USL estimates + the geomean row the paper prints."""

    estimates: dict[str, UslEstimate] = field(default_factory=dict)

    def geomean_row(self) -> dict[str, float]:
        keys = (
            "branches_per_instruction",
            "dtlb_misses_per_instruction",
            "spectre_usl_per_instruction",
            "spot_usl_per_instruction",
        )
        return {
            k: common.geomean(getattr(e, k) for e in self.estimates.values())
            for k in keys
        }

    def report(self) -> str:
        rows = []
        for wl, e in self.estimates.items():
            p = e.as_percentages()
            rows.append(
                (
                    wl,
                    f"{p['branches/instructions(%)']:.2f}",
                    f"{p['dtlb_misses/instructions(%)']:.3f}",
                    f"{p['spectre_usl/instructions(%)']:.1f}",
                    f"{p['spot_usl/instructions(%)']:.2f}",
                )
            )
        g = self.geomean_row()
        rows.append(
            (
                "geomean",
                f"{100 * g['branches_per_instruction']:.2f}",
                f"{100 * g['dtlb_misses_per_instruction']:.3f}",
                f"{100 * g['spectre_usl_per_instruction']:.1f}",
                f"{100 * g['spot_usl_per_instruction']:.2f}",
            )
        )
        return common.format_table(
            ("workload", "branches/ins %", "misses/ins %",
             "Spectre USL %", "SpOT USL %"),
            rows,
        )


def plan(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
) -> Plan:
    """The CA+CA chain (shared with fig 13 / fig 14, one checkpointed
    stage per workload); the USL equations apply to the simulated
    counters at assembly time."""
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

    def assemble(results) -> Table7Result:
        chain = common.stage_payloads(results)
        walk_cycles = WalkLatencyModel().walk_costs().nested_thp
        out = Table7Result()
        for name, (sim,) in zip(workloads, chain):
            wl = common.workload(name, scale)
            instructions = wl.instruction_count(sim.accesses)
            cycles = instructions * EFFECTIVE_CPI + sim.walks * walk_cycles
            out.estimates[name] = estimate_usl(
                instructions=instructions,
                branches=int(instructions * wl.branch_fraction),
                dtlb_misses=sim.walks,
                loads=int(instructions * LOAD_FRACTION),
                cycles=cycles,
                walk_cycles=walk_cycles,
            )
        return out

    return Plan(cells, assemble)


def run(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
    executor: Executor | None = None,
) -> Table7Result:
    """Collect counters from CA+CA virtual runs and apply Table VII."""
    return plan(scale, workloads, hw, trace_len).run(executor)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().report())


if __name__ == "__main__":  # pragma: no cover
    main()
