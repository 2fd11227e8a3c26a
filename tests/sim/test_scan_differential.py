"""Ranger and shadow-paging scans vs their per-vpn references.

``RangerPaging._coalesce_vma`` and ``ShadowPager._invalidate`` find
leaves with :meth:`PageTable.next_leaf`.  The references below are the
old loops kept test-local: walk every vpn, step one on a miss.  Ranger
migrates and exchanges leaves ahead of its cursor, so the identity of
the two holds only because each step re-reads the table; these tests
pin it.  perfbench has no Ranger or shadow workload, so this (and the
suite's ``ranger``/``ext_shadow`` cells) is what covers those loops.
"""

from dataclasses import replace

import pytest

from repro.policies.ranger import RangerPaging
from repro.sim.config import TEST_SCALE, SystemConfig
from repro.sim.machine import build_machine
from repro.sim.runner import RunOptions, run_virtualized
from repro.units import order_pages
from repro.virt.hypervisor import VirtualMachine
from repro.virt.shadow import ShadowPager, attach_shadow_paging
from repro.vm.flags import DEFAULT_ANON
from repro.workloads import make_workload
from tests.mm.buddy_state import machine_state

SMALL = SystemConfig(node_pages=(32 * 1024, 32 * 1024), churn_ops=400)
KEEP = RunOptions(sample_every=None, exit_after=False)


def reference_coalesce_vma(self, kernel, process, vma, budget: int) -> int:
    """The per-vpn ``RangerPaging._coalesce_vma``."""
    space = process.space
    anchors = self._anchor_plan(kernel, process, vma)
    if not anchors:
        return budget
    vpn = vma.start_vpn
    while vpn < vma.end_vpn and budget > 0:
        walk = space.page_table.walk(vpn)
        if not walk.hit:
            vpn += 1
            continue
        pages = order_pages(walk.pte.order)
        offset = self._offset_for(anchors, walk.base_vpn)
        desired = walk.base_vpn - offset
        if walk.pte.pfn != desired and desired >= 0:
            if kernel.migrate(
                process, vma, walk.base_vpn, desired, walk.pte.order
            ):
                self.stats.migrations += pages
                budget -= pages
            elif self._exchange(kernel, process, walk.base_vpn, desired):
                self.stats.migrations += 2 * pages
                budget -= 2 * pages
        vpn = walk.base_vpn + pages
    return budget


def reference_invalidate(shadow, base_vpn: int, n_pages: int) -> None:
    """The per-vpn ``ShadowPager._invalidate``."""
    vpn = base_vpn
    end = base_vpn + n_pages
    while vpn < end:
        walk = shadow.walk(vpn)
        if walk.hit:
            shadow.unmap(vpn)
            vpn = walk.base_vpn + order_pages(walk.pte.order)
        else:
            vpn += 1


def leaves(table) -> list:
    return [(vpn, pte.pfn, int(pte.flags)) for vpn, pte in table.iter_leaves()]


def ranger_epochs(thp: bool) -> dict:
    """Two processes with holey VMAs under a small per-epoch budget."""
    machine = build_machine(
        "ranger", replace(SMALL, thp=thp), migrations_per_epoch=700
    )
    kernel = machine.kernel
    processes = [kernel.create_process(name) for name in ("a", "b")]
    for process, touches in zip(processes, (
        [(0, 600, 1), (900, 700, 2), (2500, 450, 1)],
        [(50, 1500, 3), (2000, 750, 1)],
    )):
        vma = kernel.mmap(process, 3072, flags=DEFAULT_ANON, name="heap")
        for start, n_pages, step in touches:
            # Every `step`-th page: a step above 1 leaves holes.
            for vpn in range(start, start + n_pages, step):
                kernel.touch_range(process, vma.start_vpn + vpn, 1)
    migrations = []
    for _ in range(10):
        kernel.run_daemons()
        migrations.append(machine.policy.stats.migrations)
    return {
        "migrations": migrations,
        "stats": dict(sorted(vars(machine.policy.stats).items())),
        "shootdowns": kernel.tlb_shootdowns,
        "leaves": [leaves(p.space.page_table) for p in processes],
        "runs": [p.space.runs.generation for p in processes],
        "machine": machine_state(machine.mem),
    }


def shadow_guest(guest_thp: bool, host_thp: bool) -> dict:
    """A CA+CA shadow-paging guest with COW re-syncs over live leaves.

    Without host THP, guest huge leaves splinter into 512 shadow leaves,
    so a huge re-sync invalidates a whole PT node of them.
    """
    machine = build_machine("ca", replace(SMALL, thp=host_thp))
    guest_pages = sum(SMALL.node_pages)
    guest_pages -= guest_pages % order_pages(SMALL.max_order)
    vm = VirtualMachine(machine, guest_pages, "ca", guest_thp=guest_thp)
    pager = attach_shadow_paging(vm)
    parent = run_virtualized(vm, make_workload("svm", TEST_SCALE), KEEP).process
    child = vm.guest_kernel.fork(parent)
    # Write faults break COW; the parent's re-syncs land on live shadow
    # leaves, 4K and huge alike.
    shared = list(parent.space.page_table.iter_leaves())
    for base_vpn, _pte in shared[::3]:
        vm.guest_fault(parent, base_vpn, write=True)
    for base_vpn, _pte in shared[1::5]:
        vm.guest_fault(child, base_vpn, write=True)
    tables = {pid: leaves(table) for pid, table in sorted(pager._tables.items())}
    invalidated = pager.stats.installed_leaves - sum(map(len, tables.values()))
    vm.guest_exit_process(child)
    return {
        "stats": dict(sorted(vars(pager.stats).items())),
        "invalidated": invalidated,
        "tables": tables,
        "host": machine_state(machine.mem),
        "guest": machine_state(vm.guest_kernel.mem),
    }


@pytest.mark.parametrize("thp", [True, False])
def test_ranger_epochs_match_per_vpn_reference(thp, monkeypatch):
    fast = ranger_epochs(thp)
    monkeypatch.setattr(RangerPaging, "_coalesce_vma", reference_coalesce_vma)
    slow = ranger_epochs(thp)
    assert fast["stats"]["migrations"] > 0
    assert fast == slow


@pytest.mark.parametrize(
    "guest_thp, host_thp", [(True, True), (True, False), (False, True)]
)
def test_shadow_guest_matches_per_vpn_reference(guest_thp, host_thp, monkeypatch):
    fast = shadow_guest(guest_thp, host_thp)
    monkeypatch.setattr(
        ShadowPager, "_invalidate", staticmethod(reference_invalidate)
    )
    slow = shadow_guest(guest_thp, host_thp)
    assert fast["invalidated"] > 0
    assert fast == slow
