"""Per-page and per-access references for the production paths.

``src/`` runs one path per operation: the kernel faults whole spans,
forks leaf by leaf and promotes whole regions, and the MMU simulator
replays the TLB hierarchy and every scheme machine in numpy batches.
Each of those paths claims to be *bit-identical* to a simpler loop —
one fault per page, one page-table walk per vpn, one TLB access per
trace entry.  Those loops live here, and :func:`reference_paths`
swaps them in for the production methods so a differential test can
run the same scenario twice and compare everything observable.

The scheme machines' own per-event ``on_miss`` paths stay in ``src/``:
their batched paths fall back to them when a stream cannot be indexed.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.hw.mmu_sim import MmuSimResult, MmuSimulator
from repro.hw.segmentation import OUTSIDE
from repro.hw.spot import CORRECT, MISPREDICT
from repro.hw.translation import ResolvedTrace
from repro.hw.utopia import REST_HIT
from repro.sim.kernel import Kernel
from repro.units import HUGE_ORDER, HUGE_PAGES, order_pages
from repro.virt.hypervisor import VirtualMachine
from repro.vm.flags import PteFlags

# -- kernel ---------------------------------------------------------------------


def touch_range(self: Kernel, process, start_vpn: int, n_pages: int,
                write: bool = True) -> int:
    """Page-by-page :meth:`Kernel.touch_range`: one walk per stretch,
    one :meth:`Kernel.fault` per unmapped page or COW leaf."""
    space = process.space
    majors = 0
    vpn = start_vpn
    end = start_vpn + n_pages
    while vpn < end:
        walk = space.page_table.walk(vpn)
        if walk.hit and not (write and walk.pte.flags & PteFlags.COW):
            vpn = walk.base_vpn + order_pages(walk.pte.order)
            continue
        result = self.fault(process, vpn, write)
        majors += 1
        vpn = result.vpn + order_pages(result.order) if not result.minor else vpn + 1
    process.touched_pages += n_pages
    return majors


def fork(self: Kernel, parent, name: str = ""):
    """Per-vpn :meth:`Kernel.fork`: walk every vpn of every VMA."""
    child = self.create_process(name or f"{parent.name}-child", parent.preferred_node)
    self._cow_possible = True
    for vma in parent.space.iter_vmas():
        child_vma = child.space.mmap(
            vma.n_pages, vma.flags, at_vpn=vma.start_vpn,
            name=vma.name, file=vma.file,
        )
        child_vma.offsets = list(vma.offsets)
        vpn = vma.start_vpn
        while vpn < vma.end_vpn:
            walk = parent.space.page_table.walk(vpn)
            if not walk.hit:
                vpn += 1
                continue
            pte = walk.pte
            # Write-protect both sides; share the frame.
            pte.flags = (pte.flags | PteFlags.COW) & ~PteFlags.WRITE
            child.space.install(
                child_vma, walk.base_vpn, pte.pfn, pte.order, pte.flags
            )
            self._account_frame(pte.pfn, pte.order, owner=child.pid)
            vpn = walk.base_vpn + order_pages(pte.order)
    return child


def remap_region_huge(self: Kernel, process, vma, region_vpn: int,
                      new_pfn: int) -> None:
    """Per-page :meth:`Kernel.remap_region_huge`: uninstall each
    resident leaf of the region, then install the huge leaf."""
    space = process.space
    vpn = region_vpn
    while vpn < region_vpn + HUGE_PAGES:
        walk = space.page_table.walk(vpn)
        if walk.hit:
            space.uninstall(vma, walk.base_vpn)
            self._put_frame(walk.pte.pfn, walk.pte.order)
        vpn += 1
    space.install(
        vma, region_vpn, new_pfn, HUGE_ORDER, self._prot_flags(vma, write=True)
    )
    self._account_frame(new_pfn, HUGE_ORDER, owner=process.pid)
    self._update_contig_bit(space, region_vpn)
    self.tlb_shootdowns += 1


def guest_touch_range(self: VirtualMachine, process, start_vpn: int,
                      n_pages: int, write: bool = True) -> int:
    """Per-leaf :meth:`VirtualMachine.guest_touch_range`: one
    :meth:`VirtualMachine.guest_fault` per unmapped page or COW leaf."""
    majors = 0
    vpn = start_vpn
    end = start_vpn + n_pages
    space = process.space
    while vpn < end:
        walk = space.page_table.walk(vpn)
        if walk.hit and not (write and walk.pte.flags & PteFlags.COW):
            vpn = walk.base_vpn + order_pages(walk.pte.order)
            continue
        result = self.guest_fault(process, vpn, write)
        majors += 1
        vpn = result.vpn + order_pages(result.order)
    process.touched_pages += n_pages
    return majors


def resident_pages(space, region: int) -> int:
    """Per-vpn count of the mapped pages of one huge region (what
    Ingens's promotion scan reads from ``MappingRuns.covered_pages``)."""
    return sum(
        1 for vpn in range(region, region + HUGE_PAGES) if space.is_mapped(vpn)
    )


# -- MMU ------------------------------------------------------------------------


def replay(self: MmuSimulator, t: ResolvedTrace, result: MmuSimResult) -> None:
    """Per-access :meth:`MmuSimulator._replay`: one TLB hierarchy access
    per trace entry, and every walk through each scheme's scalar path."""
    access = self.tlb.access
    spot_done = self.spot.on_walk_complete
    rmm_on = self.rmm.on_miss
    ds_on = self.ds.on_miss
    ctlb_on = self.ctlb.on_miss
    utopia_on = self.utopia.on_miss
    seg_on = self.seg.on_miss
    pcs = t.pc.tolist()
    bases = t.entry_base.tolist()
    huges = t.entry_huge.tolist()
    vpns = t.vpn.tolist()
    ppns = t.ppn.tolist()
    contigs = t.contig.tolist()
    segs = t.in_segment.tolist()
    run_starts = t.run_start.tolist()
    run_lens = t.run_len.tolist()
    for i in range(len(pcs)):
        level = access(bases[i], huges[i])
        if level == "l1":
            result.l1_hits += 1
            continue
        if level == "l2":
            result.l2_hits += 1
            continue
        result.walks += 1
        vpn = vpns[i]
        # SpOT: predict + background verification walk.
        outcome = spot_done(pcs[i], vpn, ppns[i], contigs[i])
        if outcome == CORRECT:
            result.spot_correct += 1
        elif outcome == MISPREDICT:
            result.spot_mispredict += 1
        else:
            result.spot_no_prediction += 1
        # vRMM: range TLB / range table coverage.
        if rmm_on(vpn, run_starts[i], run_lens[i]) == "uncovered":
            result.rmm_uncovered += 1
        # DS: segment check.
        if not ds_on(segs[i]):
            result.ds_outside += 1
        # Coalesced TLB: run-coalesced entry coverage.
        if not ctlb_on(vpn, run_starts[i], run_lens[i]):
            result.ctlb_uncovered += 1
        # Utopia: restrictive-region hit or flexible walk.
        if utopia_on(vpn, run_starts[i], run_lens[i]) == REST_HIT:
            result.utopia_rest += 1
        else:
            result.utopia_flex += 1
        # Segmentation: base/limit segment check.
        if seg_on(vpn, run_starts[i], run_lens[i]) == OUTSIDE:
            result.seg_outside += 1


# -- switching --------------------------------------------------------------------

#: ``(class, attribute, reference)`` for every production path above.
PATCHES = (
    (Kernel, "touch_range", touch_range),
    (Kernel, "fork", fork),
    (Kernel, "remap_region_huge", remap_region_huge),
    (VirtualMachine, "guest_touch_range", guest_touch_range),
    (MmuSimulator, "_replay", replay),
)


@contextmanager
def reference_paths():
    """Run the kernel, the hypervisor and the MMU simulator on their
    references for the duration of the block (every instance, host and
    guest alike)."""
    saved = [(cls, name, vars(cls)[name]) for cls, name, _ in PATCHES]
    for cls, name, ref in PATCHES:
        setattr(cls, name, ref)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


#: The two path sets a differential test compares: ``"fast"`` is the
#: batched production code, ``"scalar"`` the references above.
PATHS = ("fast", "scalar")


def paths(which: str):
    """Context that runs the block on one of :data:`PATHS`."""
    if which not in PATHS:
        raise ValueError(f"unknown path set {which!r}")
    return reference_paths() if which == "scalar" else nullcontext()
