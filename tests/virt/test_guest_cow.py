"""A guest write touch after a guest fork breaks copy-on-write.

``guest_touch_range(..., write=True)`` must leave a forked guest exactly
as per-leaf ``guest_fault(..., write=True)`` calls over the same range
do: the same leaves in parent and child, the same COW breaks, the same
nested backing and, under shadow paging, the same shadow re-syncs.
Both the batched path and its per-leaf reference (``tests/reference.py``)
are checked; the range holds COW leaves and unmapped holes alike.
"""

from __future__ import annotations

import pytest

from repro.sim.config import SystemConfig
from repro.sim.machine import build_machine
from repro.units import order_pages
from repro.virt.hypervisor import VirtualMachine
from repro.virt.shadow import attach_shadow_paging
from repro.vm.flags import PteFlags
from tests.reference import PATHS, paths

SMALL = SystemConfig(node_pages=(32 * 1024, 32 * 1024), churn_ops=400)
GUEST_PAGES = 16 * 1024
#: Guest VMA size and the stretches touched before the fork: three
#: mapped islands around unmapped holes, one a whole huge page.
VMA_PAGES = 2048
PRE_FORK = ((0, 100), (300, 512), (1100, 40))


def forked_vm(shadow: bool):
    vm = VirtualMachine(build_machine("ca", SMALL), GUEST_PAGES, "ca")
    pager = attach_shadow_paging(vm) if shadow else None
    parent = vm.create_guest_process("parent")
    vma = vm.guest_mmap(parent, VMA_PAGES)
    for start, n in PRE_FORK:
        vm.guest_touch_range(parent, vma.start_vpn + start, n)
    child = vm.guest_kernel.fork(parent)
    return vm, pager, parent, child, vma


def per_leaf_write(vm, process, start_vpn: int, n_pages: int) -> None:
    """Reference: one ``guest_fault(write=True)`` per unmapped page or
    COW leaf, skipping leaves that are already private."""
    table = process.space.page_table
    vpn, end = start_vpn, start_vpn + n_pages
    while vpn < end:
        walk = table.walk(vpn)
        if walk.hit and not walk.pte.flags & PteFlags.COW:
            vpn = walk.base_vpn + order_pages(walk.pte.order)
            continue
        result = vm.guest_fault(process, vpn, True)
        vpn = result.vpn + order_pages(result.order)


def state(vm, pager, parent, child) -> dict:
    def leaves(process):
        return [
            (vpn, pte.pfn, pte.order, int(pte.flags))
            for vpn, pte in process.space.page_table.iter_leaves()
        ]

    out = {
        "parent": leaves(parent),
        "child": leaves(child),
        "parent_runs": parent.space.runs.sizes_desc(),
        "cow_breaks": vm.guest_kernel.cow_breaks,
        "nested_faults": vm.nested_faults,
        "guest_free": vm.guest_mem.free_pages,
        "host_free": vm.host.mem.free_pages,
        "host_runs": vm.qemu.space.runs.sizes_desc(),
    }
    if pager is not None:
        out["shadow_stats"] = pager.stats
        out["shadow"] = [
            (vpn, pte.pfn, pte.order)
            for vpn, pte in pager.table_for(parent).iter_leaves()
        ]
    return out


@pytest.mark.parametrize("shadow", [False, True], ids=["nested", "shadow"])
@pytest.mark.parametrize("path", PATHS)
def test_guest_write_touch_breaks_cow_like_per_leaf_faults(path, shadow):
    with paths(path):
        vm, pager, parent, child, vma = forked_vm(shadow)
        breaks_before = vm.guest_kernel.cow_breaks
        syncs_before = pager.stats.syncs if shadow else 0
        vm.guest_touch_range(parent, vma.start_vpn, VMA_PAGES, write=True)
        touched = state(vm, pager, parent, child)

        ref_vm, ref_pager, ref_parent, ref_child, ref_vma = forked_vm(shadow)
        per_leaf_write(ref_vm, ref_parent, ref_vma.start_vpn, VMA_PAGES)
    assert touched == state(ref_vm, ref_pager, ref_parent, ref_child)

    # Every pre-fork leaf of the parent was a COW leaf and is now private.
    assert touched["cow_breaks"] > breaks_before
    assert not any(flags & PteFlags.COW for *_, flags in touched["parent"])
    assert any(flags & PteFlags.COW for *_, flags in touched["child"])
    if shadow:
        assert pager.stats.syncs > syncs_before


@pytest.mark.parametrize("path", PATHS)
def test_guest_read_touch_keeps_cow(path):
    with paths(path):
        vm, _, parent, _, vma = forked_vm(shadow=False)
        breaks_before = vm.guest_kernel.cow_breaks
        vm.guest_touch_range(parent, vma.start_vpn, PRE_FORK[0][1], write=False)
    assert vm.guest_kernel.cow_breaks == breaks_before
