"""Workload runners: drive a workload through a machine, sample metrics.

``run_native`` executes a workload on a :class:`~repro.sim.machine.Machine`;
``run_virtualized`` executes it inside a guest on a
:class:`~repro.virt.hypervisor.VirtualMachine` and measures *2D*
contiguity through the introspection tool.  Both return a
:class:`~repro.sim.results.RunResult`.

The run has two phases, like the paper's benchmarks:

1. *allocation* — the workload's ``alloc_steps`` are replayed (demand
   faults interleaved with page-cache readahead), with contiguity
   sampled every few steps;
2. *steady state* — asynchronous daemons (Ranger/Ingens) get
   ``steady_epochs`` more passes, with sampling between epochs, so
   post-allocation defragmentation is visible in the time series
   (Fig. 1c).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.contiguity import average_samples, sample_contiguity
from repro.metrics.faults import FaultSummary, SoftwareOverhead, bloat_pages
from repro.sim.machine import Machine
from repro.sim.results import RunResult
from repro.virt.hypervisor import VirtualMachine
from repro.virt.introspect import two_d_runs
from repro.vm.flags import DEFAULT_ANON
from repro.workloads.base import Workload

#: Modelled useful (non-kernel) execution time per footprint page, us.
#: Sets the denominator of Fig. 11's normalized runtimes.
USEFUL_US_PER_PAGE = 40.0


@dataclass
class RunOptions:
    """Knobs shared by both runners."""

    #: Sample contiguity every N allocation steps (None = only at end).
    sample_every: int | None = 16
    #: Asynchronous-daemon epochs after allocation completes.
    steady_epochs: int = 6
    #: Tear the process down afterwards (page cache persists regardless).
    exit_after: bool = True
    #: Pages of scratch output written through the page cache at the
    #: end of the run (temp files that outlive the process and age the
    #: machine across consecutive runs, Fig. 1b).
    scratch_file_pages: int = 0


def run_native(
    machine: Machine, workload: Workload, options: RunOptions | None = None
) -> RunResult:
    """Run a workload natively and collect contiguity + fault metrics."""
    options = options or RunOptions()
    kernel = machine.kernel
    kernel.reset_fault_stats()
    process = kernel.create_process(workload.name)
    vmas = [
        kernel.mmap(process, plan.n_pages, flags=DEFAULT_ANON, name=plan.name)
        for plan in workload.vma_plans
    ]
    files = [
        _file_handle(kernel, plan.name, plan.n_pages)
        for plan in workload.file_plans
    ]

    result = RunResult(
        workload=workload.name,
        policy=machine.policy.name,
        virtualized=False,
        footprint_pages=workload.footprint_pages,
    )

    def sampler():
        return sample_contiguity(
            process.space.runs,
            footprint_pages=max(1, process.space.resident_pages),
            touched_pages=process.touched_pages,
        )

    _replay(
        workload,
        options,
        result,
        sampler,
        touch=lambda vma_idx, start, n: kernel.touch_range(
            process, vmas[vma_idx].start_vpn + start, n
        ),
        read=lambda file_idx, start, n: kernel.file_read(
            files[file_idx], start, n
        ),
        daemons=kernel.run_daemons,
    )

    result.faults = FaultSummary.from_kernel(kernel)
    result.fault_latencies_us = kernel.fault_latencies_us()
    result.software = SoftwareOverhead.from_kernel(kernel)
    result.bloat_pages = bloat_pages(process)
    result.touched_pages = process.touched_pages
    result.resident_pages = process.resident_pages
    result.run_sizes = process.space.runs.sizes_desc()
    result.vma_start_vpns = [vma.start_vpn for vma in vmas]

    _write_scratch(kernel, workload, options, kernel.file_read)
    if options.exit_after:
        kernel.exit_process(process)
    else:
        result.process = process
    return result


def run_virtualized(
    vm: VirtualMachine, workload: Workload, options: RunOptions | None = None
) -> RunResult:
    """Run a workload inside a guest; contiguity is 2D (gVA→hPA)."""
    options = options or RunOptions()
    guest = vm.guest_kernel
    guest.reset_fault_stats()
    process = vm.create_guest_process(workload.name)
    vmas = [
        vm.guest_mmap(process, plan.n_pages, flags=DEFAULT_ANON, name=plan.name)
        for plan in workload.vma_plans
    ]
    files = [
        _file_handle(guest, plan.name, plan.n_pages)
        for plan in workload.file_plans
    ]

    result = RunResult(
        workload=workload.name,
        policy=f"{guest.policy.name}+{vm.host.policy.name}",
        virtualized=True,
        footprint_pages=workload.footprint_pages,
    )

    def sampler():
        runs = two_d_runs(vm, process)
        return sample_contiguity(
            runs,
            footprint_pages=max(1, runs.total_pages),
            touched_pages=process.touched_pages,
        )

    _replay(
        workload,
        options,
        result,
        sampler,
        touch=lambda vma_idx, start, n: vm.guest_touch_range(
            process, vmas[vma_idx].start_vpn + start, n
        ),
        read=lambda file_idx, start, n: vm.guest_file_read(
            files[file_idx], start, n
        ),
        daemons=lambda: (guest.run_daemons(), vm.host.kernel.run_daemons()),
    )

    result.faults = FaultSummary.from_kernel(guest)
    result.fault_latencies_us = guest.fault_latencies_us()
    result.software = SoftwareOverhead.from_kernel(guest)
    result.bloat_pages = bloat_pages(process)
    result.touched_pages = process.touched_pages
    result.resident_pages = process.resident_pages
    result.run_sizes = two_d_runs(vm, process).sizes_desc()
    result.vma_start_vpns = [vma.start_vpn for vma in vmas]

    _write_scratch(guest, workload, options, vm.guest_file_read)
    if options.exit_after:
        vm.guest_exit_process(process)
    else:
        result.process = process
    return result


# -- shared internals -----------------------------------------------------


def _replay(workload, options, result, sampler, touch, read, daemons) -> None:
    """Drive alloc steps + steady epochs, sampling contiguity."""
    for step_no, step in enumerate(workload.alloc_steps()):
        if step.kind == "anon":
            touch(step.index, step.start_page, step.n_pages)
        else:
            read(step.index, step.start_page, step.n_pages)
        if options.sample_every and step_no % options.sample_every == 0:
            result.samples.append(sampler())
    for _ in range(options.steady_epochs):
        daemons()
        result.samples.append(sampler())
    result.final = sampler()
    if not result.samples:
        result.samples.append(result.final)
    result.average = average_samples(result.samples)


def _file_handle(kernel, name: str, n_pages: int):
    """Reuse an already cached file with the same name (runs share input)."""
    file = kernel.page_cache.find(name, n_pages)
    if file is not None:
        return file
    return kernel.page_cache.open(n_pages, name=name)


def _write_scratch(kernel, workload, options, read_fn) -> None:
    """Leave a scratch file in the page cache (ages the machine).

    The sequence number comes from the kernel so the name — and hence
    the result — is a pure function of this machine's history, not of
    how many runs any other machine did in the same process.
    """
    if not options.scratch_file_pages:
        return
    scratch = kernel.page_cache.open(
        options.scratch_file_pages,
        name=f"{workload.name}-scratch-{kernel.next_scratch_id()}",
    )
    read_fn(scratch, 0, scratch.n_pages)
