"""Extension experiment: nested vs shadow paging under CA+SpOT.

Not a paper figure — it tests the paper's §VII claim that CA paging and
SpOT are agnostic to the virtualization technique.  For each workload,
the same CA+CA memory state is costed under:

- **nested** paging: TLB misses pay the 2D walk (~81 cycles at THP),
  guest page-table updates are free;
- **shadow** paging: TLB misses pay a native walk (~32 cycles), but
  every guest PTE update costs a VM exit + shadow sync (~2700 cycles);
- both, with **SpOT** attached (it predicts the same gVA→hPA offsets
  either way — the predictor neither knows nor cares which tables back
  the translation).

The classic crossover appears: shadow wins in steady state
(miss-dominated), nested wins for fault-heavy phases; SpOT compresses
the steady-state gap to near zero, which is the paper's agility
argument made quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import common
from repro.hw.mmu_sim import MmuSimulator
from repro.hw.translation import TranslationView
from repro.hw.walk import WalkLatencyModel
from repro.sim.config import HardwareConfig, ScaleProfile
from repro.sim.jobs import Executor, Plan
from repro.sim.runner import RunOptions, run_virtualized
from repro.virt.shadow import SHADOW_SYNC_CYCLES, attach_shadow_paging

TRACE_LEN = 150_000
#: The simulated trace samples one steady-state window; page faults
#: (and hence shadow syncs) happen once per page over the *whole* run,
#: which spans many such windows.  Sync costs amortize accordingly.
STEADY_WINDOWS = 16


@dataclass
class ShadowRow:
    """One workload's nested-vs-shadow cost breakdown (vs T_ideal)."""

    workload: str
    nested_overhead: float
    shadow_walk_overhead: float
    shadow_sync_overhead: float
    nested_spot_overhead: float
    shadow_spot_overhead: float
    splintered_leaves: int

    @property
    def shadow_overhead(self) -> float:
        return self.shadow_walk_overhead + self.shadow_sync_overhead


@dataclass
class ExtShadowResult:
    rows: dict[str, ShadowRow] = field(default_factory=dict)

    def report(self) -> str:
        table = []
        for r in self.rows.values():
            table.append(
                (
                    r.workload,
                    common.pct(r.nested_overhead),
                    common.pct(r.shadow_overhead),
                    common.pct(r.nested_spot_overhead),
                    common.pct(r.shadow_spot_overhead),
                    r.splintered_leaves,
                )
            )
        return common.format_table(
            ("workload", "nested", "shadow(walk+sync)",
             "nested+SpOT", "shadow+SpOT", "splintered"),
            table,
        )


def _shadow_step(vm, pager, name: str, scale: ScaleProfile,
                 hw: HardwareConfig, trace_len: int) -> ShadowRow:
    """One workload on an already-attached shadow-paging VM."""
    costs = WalkLatencyModel().walk_costs()
    wl = common.workload(name, scale)
    splinters_before = pager.stats.splintered_leaves
    r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
    view = TranslationView.virtualized(vm, r.process)
    sim = MmuSimulator(view, hw).run(
        wl.trace(trace_len), r.vma_start_vpns, workload=wl
    )
    t_ideal = sim.t_ideal_cycles
    syncs = r.faults.total_faults  # one shadow sync per guest PTE install
    nested_cycles = sim.walks * costs.nested_thp
    shadow_walk_cycles = sim.walks * costs.native_thp
    spot_exposed = (
        sim.spot_no_prediction
        + sim.spot_mispredict
    )
    flush = sim.spot_mispredict * costs.mispredict_penalty
    row = ShadowRow(
        workload=name,
        nested_overhead=nested_cycles / t_ideal,
        shadow_walk_overhead=shadow_walk_cycles / t_ideal,
        shadow_sync_overhead=syncs * SHADOW_SYNC_CYCLES
        / (t_ideal * STEADY_WINDOWS),
        nested_spot_overhead=(spot_exposed * costs.nested_thp + flush)
        / t_ideal,
        shadow_spot_overhead=(spot_exposed * costs.native_thp + flush)
        / t_ideal,
        splintered_leaves=pager.stats.splintered_leaves
        - splinters_before,
    )
    vm.guest_exit_process(r.process)
    vm.guest_kernel.drop_caches()
    return row


def run_cell_shadow_stage(
    *prev: common.ChainStage,
    workload: str,
    scale: ScaleProfile,
    hw: HardwareConfig,
    trace_len: int,
) -> common.ChainStage:
    """One checkpointed workload step of the shadow chain.

    The pager (hooks, tables, stats) rides inside the VM checkpoint, so
    a resumed stage continues exactly where the checkpoint left off.
    Receives the whole chain prefix so delta checkpoints can resolve
    ref frames into any earlier stage's blob.
    """
    if not prev:
        vm = common.virtual_machine("ca", "ca", scale)
        pager = attach_shadow_paging(vm)
    else:
        vm = common.resume_vm(*prev)
        pager = vm.shadow_pager
    row = _shadow_step(vm, pager, workload, scale, hw, trace_len)
    return common.finish_stage(vm, prev, row)


def plan(
    scale: ScaleProfile | None = None,
    workloads: tuple[str, ...] = common.SUITE,
    hw: HardwareConfig | None = None,
    trace_len: int = TRACE_LEN,
) -> Plan:
    """The shadow chain: the pager's state (and the VM's fragmentation)
    carries across workloads, one checkpointed stage per workload."""
    scale = scale or common.QUICK_SCALE
    hw = hw or HardwareConfig()
    cells = common.stage_cells(
        "repro.experiments.ext_shadow:run_cell_shadow_stage",
        workloads,
        scale=scale,
        hw=hw,
        trace_len=trace_len,
    )

    def assemble(results) -> ExtShadowResult:
        rows = common.stage_payloads(results)
        out = ExtShadowResult()
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
) -> ExtShadowResult:
    """Cost the same CA+CA states under both virtualization techniques."""
    return plan(scale, workloads, hw, trace_len).run(executor)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().report())


if __name__ == "__main__":  # pragma: no cover
    main()
