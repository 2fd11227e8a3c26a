"""The hypervisor model: nested paging a la KVM.

A :class:`VirtualMachine` owns

- a *host-side process* (the QEMU analogue) whose single big anonymous
  VMA represents the guest-physical (gPA) space; host page tables for
  that VMA play the role of the nested page tables (gPA→hPA),
- a *guest kernel* (an independent :class:`~repro.sim.kernel.Kernel`)
  whose "physical" memory is the gPA space, with its own buddy
  allocator, contiguity map and placement policy.

A guest page fault allocates gPA frames through the guest policy; the
first touch of each gPA region raises a *nested fault* which the host
kernel serves through the host policy.  CA paging therefore operates in
each dimension independently, exactly as in the paper (§III-C,
"virtualized execution"): the nested (gPA→hPA) mappings persist for the
VM's lifetime while guest mappings come and go with guest processes.
"""

from __future__ import annotations

from repro.errors import AddressSpaceError, VirtualizationError
from repro.mm.physmem import PhysicalMemory
from repro.sim.kernel import FaultResult, Kernel
from repro.sim.machine import Machine, boot_memory
from repro.units import order_pages
from repro.vm.flags import DEFAULT_ANON
from repro.vm.mapping_runs import frame_stretches
from repro.vm.process import Process


class VirtualMachine:
    """One VM: guest kernel + host backing via nested faults.

    Parameters
    ----------
    host:
        The host machine (its kernel runs the host/nested dimension
        placement policy).
    guest_pages:
        Guest-physical memory size in frames.
    guest_policy:
        Placement policy instance (or name) for the guest kernel.
    guest_config_knobs:
        ``max_order`` / ``sorted_max_order`` / ``thp`` of the guest
        kernel; defaults mirror the host's configuration object.
    """

    def __init__(
        self,
        host: Machine,
        guest_pages: int,
        guest_policy,
        guest_thp: bool | None = None,
        guest_max_order: int | None = None,
        guest_sorted_max_order: bool | None = None,
        aged: bool = True,
        name: str = "vm0",
    ):
        from repro.policies import make_policy

        self.host = host
        self.name = name
        cfg = host.config
        if isinstance(guest_policy, str):
            policy_name = guest_policy
            guest_cfg = cfg.for_policy(policy_name)
            guest_policy = make_policy(policy_name)
            if guest_max_order is None:
                guest_max_order = guest_cfg.max_order
            if guest_sorted_max_order is None:
                guest_sorted_max_order = guest_cfg.sorted_max_order
            if guest_thp is None:
                # Ingens-style guests disable synchronous THP faults;
                # everything else runs THP regardless of the host knob.
                guest_thp = guest_cfg.thp if policy_name == "ingens" else True
        if guest_thp is None:
            guest_thp = True
        if guest_max_order is None:
            guest_max_order = cfg.max_order
        if guest_sorted_max_order is None:
            guest_sorted_max_order = cfg.sorted_max_order

        top = order_pages(guest_max_order)
        if guest_pages % top:
            raise VirtualizationError(
                f"guest memory ({guest_pages} pages) must be a multiple of "
                f"the guest max block ({top} pages)"
            )

        # Host side: the QEMU process and the VM-memory VMA.
        self.qemu = host.kernel.create_process(f"qemu-{name}")
        self.vm_vma = host.kernel.mmap(
            self.qemu, guest_pages, flags=DEFAULT_ANON, name=f"{name}-memory"
        )

        # Guest side: an independent kernel over the gPA space.
        if aged:
            # The guest kernel pins its own boot-time allocations
            # (kernel text, page tables, daemons), breaking guest
            # memory into several free clusters like the host's.
            _rng, self.guest_mem = boot_memory(
                (guest_pages,), guest_max_order, guest_sorted_max_order,
                cfg.reserve_fraction, cfg.churn_ops, cfg.seed + 1,
            )
        else:
            self.guest_mem = PhysicalMemory(
                [guest_pages],
                max_order=guest_max_order,
                sorted_max_order=guest_sorted_max_order,
            )
        self.guest_kernel = Kernel(
            self.guest_mem,
            guest_policy,
            thp=guest_thp,
            contig_threshold=cfg.contig_threshold,
            tick_every_faults=cfg.tick_every_faults,
        )
        self.nested_faults = 0
        #: Callables ``(process, FaultResult)`` run after every guest
        #: fault that installed a mapping (once its gPA range is
        #: nested-backed) — the shadow pager syncs from here.
        self.fault_hooks: list = []
        #: Set by :func:`repro.virt.shadow.attach_shadow_paging`; when
        #: present, guest process exits drop their shadow tables too.
        self.shadow_pager = None

    # -- address plumbing -----------------------------------------------------

    @property
    def guest_pages(self) -> int:
        """Guest-physical memory size in frames."""
        return self.vm_vma.n_pages

    def host_vpn(self, gpa_page: int) -> int:
        """Host virtual page backing guest-physical page ``gpa_page``."""
        if not 0 <= gpa_page < self.guest_pages:
            raise VirtualizationError(
                f"gPA page {gpa_page:#x} outside guest memory"
            )
        return self.vm_vma.start_vpn + gpa_page

    def gpa_to_hpa(self, gpa_page: int) -> int | None:
        """Nested translation of one guest-physical page (None if unbacked)."""
        return self.qemu.space.translate(self.host_vpn(gpa_page))

    # -- nested faults -----------------------------------------------------------

    def ensure_backed(self, gpa_page: int, n_pages: int = 1) -> int:
        """Back a gPA range with host memory; returns nested fault count.

        Called when the guest touches freshly allocated guest-physical
        memory.  Already-backed pages are skipped (nested mappings
        persist for the VM's lifetime).
        """
        start = self.host_vpn(gpa_page)
        faults = self.host.kernel.touch_range(self.qemu, start, n_pages)
        # touch_range also counts toward qemu "touched" accounting;
        # the guest drives that, so undo the double count.
        self.qemu.touched_pages -= n_pages
        self.nested_faults += faults
        return faults

    # -- guest-side execution -------------------------------------------------------

    def create_guest_process(self, name: str = "") -> Process:
        """Spawn a process inside the guest."""
        return self.guest_kernel.create_process(name)

    def guest_mmap(self, process: Process, n_pages: int, **kwargs):
        """mmap inside the guest; eager guest policies back gPA at once."""
        vma = self.guest_kernel.mmap(process, n_pages, **kwargs)
        if self.guest_kernel.policy.prefaults:
            self._back_mapped_range(process, vma.start_vpn, vma.n_pages)
        return vma

    def guest_fault(self, process: Process, vpn: int, write: bool = True) -> FaultResult:
        """Guest page fault + nested backing of the granted gPA frames."""
        result = self.guest_kernel.fault(process, vpn, write)
        if not result.minor:
            self.ensure_backed(result.pfn, order_pages(result.order))
            for hook in self.fault_hooks:
                hook(process, result)
        return result

    def guest_touch_range(self, process: Process, start_vpn: int, n_pages: int,
                          write: bool = True) -> int:
        """Touch a guest virtual range, faulting in both dimensions.

        Mapped guest stretches are skipped via the mapping runs and
        unmapped gaps go through the guest kernel's batched
        ``fault_span``; each granted guest leaf is nested-backed
        immediately, exactly like the per-page :meth:`guest_fault` path.
        Once the guest has forked, a write also breaks the COW leaves of
        the mapped stretches, each through :meth:`guest_fault`, as
        :meth:`Kernel.touch_range` does natively.  With no fault hooks,
        whole granted segments are nested-backed through ``on_span``
        (one host ``touch_range`` per physically contiguous gPA
        stretch); with hooks installed the per-fault ``on_fault``
        callback routes the span through the per-leaf path so every hook
        sees its FaultResult.
        """
        kernel = self.guest_kernel
        majors = 0
        vpn = start_vpn
        end = start_vpn + n_pages
        space = process.space
        scan_cow = write and kernel._cow_possible

        def back(result: FaultResult) -> None:
            self.ensure_backed(result.pfn, order_pages(result.order))
            for hook in self.fault_hooks:
                hook(process, result)

        def back_span(_vpn: int, pfn: int, n: int) -> None:
            self.ensure_backed(pfn, n)

        on_fault = back if self.fault_hooks else None

        while vpn < end:
            gap = space.runs.next_unmapped(vpn, end)
            if gap is None:
                if scan_cow:
                    majors += kernel._cow_scan(process, vpn, end, self.guest_fault)
                break
            gap_start, gap_end = gap
            if scan_cow and gap_start > vpn:
                majors += kernel._cow_scan(process, vpn, gap_start, self.guest_fault)
            vma = space.vma_at(gap_start)
            if vma is None:
                raise AddressSpaceError(
                    f"segfault: pid {process.pid} touched unmapped vpn {gap_start:#x}"
                )
            n, vpn = kernel.fault_span(
                process, vma, gap_start, min(gap_end, vma.end_vpn), write,
                on_fault=on_fault, on_span=back_span,
            )
            majors += n
        process.touched_pages += n_pages
        return majors

    def guest_file_read(self, file, index: int,
                        n_pages: int = 1) -> list[tuple[int, int]]:
        """Guest page-cache read of ``[index, index + n_pages)`` + nested
        backing of the frames it brought in; returns the guest
        :meth:`Kernel.file_read` fill."""
        fill = self.guest_kernel.file_read(file, index, n_pages)
        # One backing request per gPA-contiguous stretch of the new frames.
        frames = [frame for _, frame in fill]
        for i, n in frame_stretches(frames):
            self.ensure_backed(frames[i], n)
        return fill

    def guest_exit_process(self, process: Process) -> None:
        """Tear down a guest process.

        Guest frames return to the guest buddy allocator, but nested
        (gPA→hPA) mappings persist — the host does not reclaim VM
        memory, matching §III-C's aging behaviour.  Under shadow paging
        the process's shadow table drops with it.
        """
        if self.shadow_pager is not None:
            self.shadow_pager.drop(process)
        self.guest_kernel.exit_process(process)

    def _back_mapped_range(self, process: Process, start_vpn: int, n_pages: int) -> None:
        # One nested-backing request per gPA-contiguous guest run, not
        # one per leaf (the host kernel skips already-backed spans).
        end = start_vpn + n_pages
        for run in list(process.space.runs):
            if run.end_vpn <= start_vpn or run.start_vpn >= end:
                continue
            lo = max(run.start_vpn, start_vpn)
            hi = min(run.end_vpn, end)
            self.ensure_backed(run.translate(lo), hi - lo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualMachine({self.name}, {self.guest_pages} gPA pages, "
            f"guest={self.guest_kernel.policy.name}, host={self.host.policy.name})"
        )
