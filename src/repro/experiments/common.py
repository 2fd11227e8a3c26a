"""Shared experiment plumbing: machine/VM builders, cells, tables.

Besides the machine/workload builders, this module hosts the generic
**run cells** experiments declare to the job-graph executor
(:mod:`repro.sim.jobs`): module-level functions whose keyword arguments
are simple hashable values, so each cell can run in a worker process
and memoize in the content-addressed run cache.  Sibling experiments
that sweep the same grid share cells verbatim — fig 11 / table V /
table VI reuse :func:`run_cell_native`, and fig 13 / fig 14 / table VII
reuse the CA+CA :func:`run_cell_virt_sim_stage` chain.  Aging-VM chains
run as checkpointed per-workload stages: :func:`stage_cells` declares
them and :func:`finish_stage` checkpoints each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.sim import transport

from repro.sim.config import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    TEST_SCALE,
    HardwareConfig,
    ScaleProfile,
    SystemConfig,
)
from repro.sim.jobs import Cell, cell
from repro.sim.machine import Machine, build_machine
from repro.sim.runner import RunOptions, run_native, run_virtualized
from repro.virt.hypervisor import VirtualMachine
from repro.units import order_pages
from repro.workloads import make_workload
from repro.workloads.base import Workload

#: Workload order used everywhere (Table III order).
SUITE = ("svm", "pagerank", "hashjoin", "xsbench", "bt")
#: The paper's allocation baselines in Fig. 7/8 order.
CONTIGUITY_POLICIES = ("thp", "ingens", "eager", "ranger", "ca", "ideal")


def system_config(scale: ScaleProfile, **overrides) -> SystemConfig:
    """Machine shape for a scale profile."""
    return SystemConfig.from_scale(scale, **overrides)


def native_machine(policy: str, scale: ScaleProfile, **overrides) -> Machine:
    """An aged native machine running the given policy."""
    return build_machine(policy, system_config(scale, **overrides))


def virtual_machine(
    host_policy: str,
    guest_policy: str,
    scale: ScaleProfile,
    **overrides,
) -> VirtualMachine:
    """A machine-sized VM (the paper gives the VM all host memory)."""
    host = native_machine(host_policy, scale, **overrides)
    guest_pages = sum(host.config.node_pages)
    guest_pages -= guest_pages % order_pages(host.config.max_order)
    return VirtualMachine(host, guest_pages, guest_policy)


def workload(name: str, scale: ScaleProfile, seed: int = 0) -> Workload:
    """Instantiate a suite workload."""
    return make_workload(name, scale, seed=seed)


def geomean(values: Iterable[float], floor: float = 1e-9) -> float:
    """Geometric mean with a zero floor."""
    vals = [max(float(v), floor) for v in values]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table (the experiment report format)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def pct(x: float) -> str:
    """Percentage cell."""
    return f"{100 * x:.1f}%"


# -- generic run cells ------------------------------------------------------
#
# Each cell is a pure function of its keyword arguments: machines are
# built fresh from seeded configs, so the result is deterministic and
# safe to execute in a worker process or serve from the run cache.
# Results must be picklable — cells never return live processes.


def run_cell_native(
    *,
    workload: str,
    policy: str,
    scale: ScaleProfile,
    seed: int = 0,
    options: RunOptions | None = None,
    hog: float = 0.0,
    node_pages: tuple[int, ...] | None = None,
):
    """One native run on a fresh machine; the native-grid cell.

    ``hog`` pins that fraction of memory before the run (fig 8's
    pressure sweep); ``node_pages`` overrides the machine shape (the
    NUMA-off experiments).
    """
    overrides = {} if node_pages is None else {"node_pages": tuple(node_pages)}
    machine = native_machine(policy, scale, **overrides)
    if hog:
        machine.hog(hog)
    wl = make_workload(workload, scale, seed=seed)
    result = run_native(machine, wl, options or RunOptions())
    result.process = None
    return result


def run_cell_virt_chain(
    *,
    host_policy: str,
    guest_policy: str,
    workloads: tuple[str, ...],
    scale: ScaleProfile,
    options: RunOptions | None = None,
    drop_caches: bool = True,
):
    """Consecutive runs inside one long-lived VM (fig 12 / the paper's
    no-reboot aging); returns the per-workload results in order."""
    vm = virtual_machine(host_policy, guest_policy, scale)
    results = []
    for name in workloads:
        wl = make_workload(name, scale)
        r = run_virtualized(vm, wl, options or RunOptions())
        r.process = None
        results.append(r)
        if drop_caches:
            vm.guest_kernel.drop_caches()
    return results


def run_cell_native_sim(
    *,
    workload: str,
    policy: str,
    scale: ScaleProfile,
    hw: HardwareConfig,
    trace_len: int,
    force_4k: tuple[bool, ...] = (False,),
):
    """One native run plus TLB simulations of its final memory state.

    Returns one :class:`~repro.hw.mmu_sim.MmuSimResult` per entry of
    ``force_4k`` (fig 13's THP and 4K bars come from the same state
    viewed at different TLB-entry granularity).
    """
    from repro.hw.mmu_sim import MmuSimulator
    from repro.hw.translation import TranslationView

    machine = native_machine(policy, scale)
    wl = make_workload(workload, scale)
    trace = wl.trace(trace_len)
    r = run_native(machine, wl, RunOptions(sample_every=None, exit_after=False))
    sims = []
    for force in force_4k:
        view = TranslationView.native(r.process, force_4k=force)
        sims.append(MmuSimulator(view, hw).run(trace, r.vma_start_vpns, workload=wl))
    machine.kernel.exit_process(r.process)
    return sims


# -- aging-VM chains as checkpointed stages ----------------------------------
#
# An aging-VM chain (one VM running the workloads back to back, the
# paper's no-reboot aging) is a linear DAG of per-workload *stages*:
# each stage carries its payload plus the serialized VM it left behind,
# and the next stage resumes from that checkpoint.  The stage cells are
# content-addressed like any other cell (the key covers the whole chain
# prefix through the dependency specs), so an interrupted suite resumes
# from the last completed stage and the executor overlaps independent
# chains' stages.  VM state serializes faithfully — machines are built
# from seeded configs and hold no open resources — so a chain resumed
# from checkpoints matches one live VM stepping through the workloads
# (asserted by the chain-stage tests).
#
# Checkpoints ride the RPT1 transport (:mod:`repro.sim.transport`):
# the VM's numpy columns move out-of-band and RLE/zlib-compress per
# frame, and stage k stores a *delta* against stage k-1 — unchanged
# columns become 20-byte ref frames instead of being re-written five
# times along the suite chain.  That is why stage cells depend on the
# *whole prefix* rather than just the previous stage: resuming stage k
# needs every earlier blob registered in a :class:`~repro.sim.transport.
# BufferStore` so ref frames can resolve.


@dataclass
class ChainStage:
    """One chain stage's result: payload + the VM checkpoint after it.

    ``state`` is the framed (possibly delta) VM blob — the next stage's
    starting point; ``state_digest`` is the transport's *logical* state
    digest, which is identical whether the blob was written full or as
    a delta, so tests can assert checkpoint determinism without caring
    how the bytes were framed.  ``base_digest`` names the checkpoint
    this one is a delta against (``None`` for a full blob).
    """

    payload: Any
    state: bytes
    state_digest: str
    base_digest: str | None = None


def checkpoint_vm(
    vm: VirtualMachine, prev: Sequence[ChainStage] = ()
) -> tuple[bytes, str]:
    """Serialize a VM into a chain checkpoint ``(blob, logical digest)``.

    With ``prev`` (the chain prefix, oldest first) the blob is a delta
    against the last stage's checkpoint: columns whose canonical
    encoding is unchanged become ref frames into the prefix blobs.
    """
    if prev:
        store = transport.BufferStore()
        for stage in prev:
            store.add_blob(stage.state)
        blob = transport.dumps(vm, store=store, base=prev[-1].state_digest)
    else:
        blob = transport.dumps(vm)
    return blob, transport.blob_digest(blob)


def resume_vm(*prev: ChainStage) -> VirtualMachine:
    """Rehydrate the VM the last of ``prev`` checkpointed.

    Every stage of the prefix must be supplied (oldest first): a delta
    blob's ref frames may point into any earlier stage's checkpoint.
    """
    store = transport.BufferStore()
    for stage in prev:
        store.add_blob(stage.state)
    return transport.loads(prev[-1].state, store=store)


def finish_stage(
    vm: VirtualMachine, prev: Sequence[ChainStage], payload: Any
) -> ChainStage:
    """Checkpoint ``vm`` (as a delta against ``prev`` when there is a
    prefix) and wrap it with the stage's payload."""
    blob, digest = checkpoint_vm(vm, prev)
    return ChainStage(
        payload=payload,
        state=blob,
        state_digest=digest,
        base_digest=prev[-1].state_digest if prev else None,
    )


def stage_cells(fn: str, workloads: Sequence[str], **params) -> list[Cell]:
    """One ``fn`` cell per workload, each depending on its chain's
    *entire* prefix (not just the previous stage): delta checkpoints
    hold ref frames that may resolve into any earlier stage's blob, so a
    resumed stage needs all of them.  Experiments that build a chain
    with identical parameters (fig 13 / fig 14 / Table VII's CA+CA
    chain) share every stage cell through the run cache."""
    out: list[Cell] = []
    for name in workloads:
        out.append(cell(fn, deps=tuple(out), workload=name, **params))
    return out


def stage_payloads(results: Sequence[ChainStage]) -> list[Any]:
    """Unwrap a chain's stage results into its per-workload payloads."""
    return [stage.payload for stage in results]


def virt_sim_step(
    vm: VirtualMachine,
    workload: str,
    scale: ScaleProfile,
    hw: HardwareConfig,
    trace_len: int,
    force_4k: tuple[bool, ...] = (False,),
) -> list:
    """One workload on an aging VM; its final memory state is
    TLB-simulated before the VM moves on.

    Returns one ``MmuSimResult`` per ``force_4k`` entry.
    """
    from repro.hw.mmu_sim import MmuSimulator
    from repro.hw.translation import TranslationView

    wl = make_workload(workload, scale)
    trace = wl.trace(trace_len)
    r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
    sims = []
    for force in force_4k:
        view = TranslationView.virtualized(vm, r.process, force_4k=force)
        sims.append(
            MmuSimulator(view, hw).run(trace, r.vma_start_vpns, workload=wl)
        )
    vm.guest_exit_process(r.process)
    vm.guest_kernel.drop_caches()
    return sims


def run_cell_virt_sim_stage(
    *prev: ChainStage,
    host_policy: str,
    guest_policy: str,
    workload: str,
    scale: ScaleProfile,
    hw: HardwareConfig,
    trace_len: int,
    force_4k: tuple[bool, ...] = (False,),
) -> ChainStage:
    """One stage of a virt-sim chain: :func:`virt_sim_step` on the VM
    the prefix left behind (built fresh for the first stage).

    The CA+CA instance of this chain carries fig 13's scheme bars,
    fig 14's SpOT breakdown *and* Table VII's counters — one simulation
    serves all three experiments through the run cache.
    """
    vm = resume_vm(*prev) if prev else virtual_machine(
        host_policy, guest_policy, scale
    )
    sims = virt_sim_step(vm, workload, scale, hw, trace_len, force_4k)
    return finish_stage(vm, prev, sims)


__all__ = [
    "CONTIGUITY_POLICIES",
    "DEFAULT_SCALE",
    "QUICK_SCALE",
    "SUITE",
    "TEST_SCALE",
    "ChainStage",
    "HardwareConfig",
    "checkpoint_vm",
    "finish_stage",
    "format_table",
    "geomean",
    "native_machine",
    "pct",
    "resume_vm",
    "run_cell_native",
    "run_cell_native_sim",
    "run_cell_virt_chain",
    "run_cell_virt_sim_stage",
    "stage_cells",
    "stage_payloads",
    "system_config",
    "virt_sim_step",
    "virtual_machine",
    "workload",
]
