"""Extension experiment: running vHC instead of just counting it.

The paper rejects virtualized Hybrid Coalescing structurally (Table I:
~38x more entries than ranges under CA) without simulating it.  This
extension runs the mechanism: the same CA+CA memory state and trace are
fed to (i) a conventional TLB + SpOT, and (ii) a hybrid anchor-
coalescing TLB at the OS-chosen anchor distance.

What it shows at this scale: anchored coalescing *does* beat the plain
TLB (its entries reach far beyond 2 MiB), and its residual miss rate
lands in SpOT's neighbourhood — but each anchor entry covers only an
aligned ``d``-slice of a run, so covering a footprint costs many more
entries than ranges/offsets (the Table I ratio), and the sweep over
smaller anchor distances (``distance_sweep``) shows reach collapsing
as alignment slices tighten.  At the paper's 100+ GB footprints the
entry pressure exceeds any real TLB, which is the argument for
alignment-free schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import common
from repro.hw.hybrid_coalescing import anchor_distance_for
from repro.hw.mmu_sim import MmuSimulator
from repro.hw.translation import TranslationView
from repro.hw.vhc import simulate_vhc
from repro.sim.config import HardwareConfig, ScaleProfile
from repro.sim.jobs import Executor, Plan
from repro.sim.runner import RunOptions, run_virtualized

TRACE_LEN = 150_000


@dataclass
class VhcRow:
    workload: str
    anchor_distance: int
    baseline_miss_rate: float
    vhc_miss_rate: float
    spot_exposed_rate: float  # misses SpOT could not hide, per access
    avg_pages_per_entry: float


@dataclass
class ExtVhcResult:
    rows: dict[str, VhcRow] = field(default_factory=dict)

    def report(self) -> str:
        table = [
            (
                r.workload,
                r.anchor_distance,
                f"{r.baseline_miss_rate:.3%}",
                f"{r.vhc_miss_rate:.3%}",
                f"{r.spot_exposed_rate:.3%}",
                f"{r.avg_pages_per_entry:.1f}",
            )
            for r in self.rows.values()
        ]
        return common.format_table(
            ("workload", "anchor d", "TLB miss", "vHC miss",
             "SpOT exposed", "pages/entry"),
            table,
        )


def _vhc_step(vm, name: str, scale: ScaleProfile, hw: HardwareConfig,
              trace_len: int) -> VhcRow:
    """One workload on an aging CA+CA VM; costs both organisations."""
    wl = common.workload(name, scale)
    r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
    view = TranslationView.virtualized(vm, r.process)
    trace = wl.trace(trace_len)
    baseline = MmuSimulator(view, hw).run(trace, r.vma_start_vpns, workload=wl)
    resolved = view.resolve(trace, r.vma_start_vpns)
    distance = anchor_distance_for(
        [int(x) for x in (view.ends - view.starts)]
    )
    # The anchor TLB replaces the L2 STLB: give it the same budget.
    vhc = simulate_vhc(resolved, distance, entries=hw.l2_entries,
                       ways=hw.l2_ways)
    row = VhcRow(
        workload=name,
        anchor_distance=distance,
        baseline_miss_rate=baseline.miss_rate,
        vhc_miss_rate=vhc.miss_rate,
        spot_exposed_rate=(
            baseline.spot_no_prediction + baseline.spot_mispredict
        ) / max(1, baseline.accesses),
        avg_pages_per_entry=vhc.avg_pages_per_entry,
    )
    vm.guest_exit_process(r.process)
    vm.guest_kernel.drop_caches()
    return row


def run_cell_vhc_stage(
    *prev: common.ChainStage,
    workload: str,
    scale: ScaleProfile,
    hw: HardwareConfig,
    trace_len: int,
) -> common.ChainStage:
    """One checkpointed workload step of the vHC chain.

    Receives the whole chain prefix so delta checkpoints can resolve
    ref frames into any earlier stage's blob."""
    vm = common.resume_vm(*prev) if prev else (
        common.virtual_machine("ca", "ca", scale)
    )
    row = _vhc_step(vm, workload, scale, hw, trace_len)
    return common.finish_stage(vm, prev, row)


def plan(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
) -> Plan:
    """The vHC chain — the VM ages across the suite, one checkpointed
    stage per workload."""
    scale = scale or common.QUICK_SCALE
    hw = hw or HardwareConfig()
    cells = common.stage_cells(
        "repro.experiments.ext_vhc:run_cell_vhc_stage",
        workloads,
        scale=scale,
        hw=hw,
        trace_len=trace_len,
    )

    def assemble(results) -> ExtVhcResult:
        rows = common.stage_payloads(results)
        out = ExtVhcResult()
        for row in rows:
            out.rows[row.workload] = row
        return out

    return Plan(cells, assemble)


def run(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
    executor: Executor | None = None,
) -> ExtVhcResult:
    """Same CA+CA states: conventional TLB + SpOT vs anchor TLB."""
    return plan(scale, workloads, hw, trace_len).run(executor)


def distance_sweep(
    scale: ScaleProfile | None = None,
    workload_name: str = "xsbench",
    distances: tuple[int, ...] = (64, 512, 4096),
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
) -> dict[int, float]:
    """vHC miss rate vs anchor distance on one CA+CA state."""
    scale = scale or common.QUICK_SCALE
    hw = hw or HardwareConfig()
    vm = common.virtual_machine("ca", "ca", scale)
    wl = common.workload(workload_name, scale)
    r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
    view = TranslationView.virtualized(vm, r.process)
    resolved = view.resolve(wl.trace(trace_len), r.vma_start_vpns)
    out = {
        d: simulate_vhc(resolved, d, entries=hw.l2_entries, ways=hw.l2_ways).miss_rate
        for d in distances
    }
    vm.guest_exit_process(r.process)
    return out


def main() -> None:  # pragma: no cover - CLI entry
    print(run().report())


if __name__ == "__main__":  # pragma: no cover
    main()
