"""Shadow paging: the alternative MMU-virtualization technique.

With shadow paging the hypervisor maintains *shadow page tables* that
map gVA→hPA directly, so a TLB miss walks one 4-level table at native
cost instead of the 24-reference nested walk.  The price moves to the
fault path: every guest page-table update traps into the hypervisor
(a VM exit) to keep the shadow in sync.

The paper evaluates nested paging (the state of practice) but notes
CA paging and SpOT are "agnostic to the virtualization technology and
directly applicable to shadow and hybrid paging" (§VII).  This module
implements the shadow side so that claim is testable:

- a :class:`ShadowPager` mirrors every guest mapping into a per-process
  shadow table, *splintering* guest huge leaves whose gPA range is not
  backed by one huge nested mapping (the same splintering the TLB sees
  under nested paging),
- sync counts feed a cost model (VM exit + emulation per guest PTE
  update), letting experiments locate the classic crossover: shadow
  wins on TLB-miss-heavy phases, nested wins on fault-heavy ones —
  the trade-off that motivated agile paging.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import HUGE_ORDER, HUGE_PAGES, is_aligned, order_pages
from repro.virt.hypervisor import VirtualMachine
from repro.vm.flags import PteFlags
from repro.vm.page_table import PageTable
from repro.vm.process import Process

#: Cycles per shadow synchronization (VM exit + shadow PTE emulation);
#: the order of magnitude KVM reports for shadow-MMU page faults.
SHADOW_SYNC_CYCLES = 2700.0


@dataclass
class ShadowStats:
    """Shadow-pager counters."""

    syncs: int = 0
    installed_leaves: int = 0
    splintered_leaves: int = 0
    dropped_tables: int = 0


class ShadowPager:
    """Maintains gVA→hPA shadow page tables for a VM's guest processes."""

    def __init__(self, vm: VirtualMachine):
        self.vm = vm
        self._tables: dict[int, PageTable] = {}
        self.stats = ShadowStats()

    def table_for(self, process: Process) -> PageTable:
        """The shadow table of a guest process (created on demand)."""
        table = self._tables.get(process.pid)
        if table is None:
            table = PageTable()
            self._tables[process.pid] = table
        return table

    # -- sync path -----------------------------------------------------------

    def sync_fault(self, process: Process, base_vpn: int, gpa: int,
                   order: int) -> None:
        """Mirror one guest mapping into the shadow table.

        Called after the guest installed ``base_vpn -> gpa`` (a leaf of
        ``order``) and the hypervisor backed the gPA range.  A guest
        huge leaf stays huge in the shadow only when the whole gPA
        range is backed by a single aligned huge nested mapping;
        otherwise it splinters into 4 KiB shadow entries.
        """
        self.stats.syncs += 1
        shadow = self.table_for(process)
        self._invalidate(shadow, base_vpn, order_pages(order))
        if order == HUGE_ORDER and self._huge_backing(gpa):
            hpa = self.vm.gpa_to_hpa(gpa)
            shadow.map(base_vpn, hpa, order=HUGE_ORDER, flags=PteFlags.USER)
            self.stats.installed_leaves += 1
            return
        if order == HUGE_ORDER:
            self.stats.splintered_leaves += 1
        for i in range(order_pages(order)):
            hpa = self.vm.gpa_to_hpa(gpa + i)
            if hpa is None:
                continue
            shadow.map(base_vpn + i, hpa, flags=PteFlags.USER)
            self.stats.installed_leaves += 1

    @staticmethod
    def _invalidate(shadow: PageTable, base_vpn: int, n_pages: int) -> None:
        """Drop stale shadow leaves in a range (COW breaks, remaps)."""
        vpn = base_vpn
        end = base_vpn + n_pages
        while (walk := shadow.next_leaf(vpn, end)) is not None:
            shadow.unmap(walk.base_vpn)
            vpn = walk.base_vpn + order_pages(walk.pte.order)

    def _huge_backing(self, gpa: int) -> bool:
        if not is_aligned(gpa, HUGE_PAGES):
            return False
        walk = self.vm.qemu.space.page_table.walk(self.vm.host_vpn(gpa))
        return (
            walk.hit
            and walk.pte.huge
            and walk.base_vpn == self.vm.host_vpn(gpa)
        )

    def drop(self, process: Process) -> None:
        """Discard a process's shadow table (guest exit / flush)."""
        if self._tables.pop(process.pid, None) is not None:
            self.stats.dropped_tables += 1

    # -- verification ----------------------------------------------------------

    def translate(self, process: Process, vpn: int) -> int | None:
        """Shadow translation of one guest virtual page."""
        return self.table_for(process).translate(vpn)

    def verify(self, process: Process, sample_vpns) -> bool:
        """Shadow must agree with the composed 2D translation."""
        from repro.virt.introspect import two_d_runs

        runs = two_d_runs(self.vm, process)
        for vpn in sample_vpns:
            run = runs.find(vpn)
            expected = run.translate(vpn) if run else None
            if self.translate(process, vpn) != expected:
                return False
        return True


class ShadowSyncHook:
    """Fault hook mirroring guest mapping installs into the shadow.

    A module-level class (not a closure) so a shadow-paging VM stays
    picklable: chain-stage checkpoints serialize the whole VM — pager,
    hook and tables — and the unpickled hook still points at the same
    pager object.
    """

    def __init__(self, pager: ShadowPager):
        self.pager = pager

    def __call__(self, process, result) -> None:
        self.pager.sync_fault(process, result.vpn, result.pfn, result.order)


def attach_shadow_paging(vm: VirtualMachine) -> ShadowPager:
    """Switch a VM to shadow paging.

    Registers a fault hook so every guest mapping install (single
    faults and batched ``guest_touch_range`` spans alike) also syncs
    the shadow table; ``vm.shadow_pager`` makes ``guest_exit_process``
    drop each table with its process.  Returns the pager (stats +
    tables).
    """
    pager = ShadowPager(vm)
    vm.fault_hooks.append(ShadowSyncHook(pager))
    vm.shadow_pager = pager
    return pager
