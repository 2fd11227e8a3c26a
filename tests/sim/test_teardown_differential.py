"""Leaf-walk teardown vs the per-vpn reference it replaced.

``AddressSpace.munmap`` finds leaves with :meth:`PageTable.next_leaf`
and ``Kernel.munmap`` frees them with one ``_put_frame_span`` per run
of physically contiguous leaves.  The reference below is the old code
kept test-local: walk every vpn of the VMA, and ``_put_frame`` each
leaf (plus the old per-vpn ``_cow_scan``).  Both must leave the aged
``thp``, ``ingens`` and ``ca`` machines in the same state after every
exit: buddy free lists in FIFO order, every frame-table column, and the
surviving processes' ``MappingRuns.generation``.
"""

import bisect

import pytest

from repro.errors import AddressSpaceError
from repro.sim.config import SystemConfig
from repro.sim.kernel import Kernel
from repro.sim.machine import build_machine
from repro.units import HUGE_ORDER, HUGE_PAGES, order_pages
from repro.vm.flags import DEFAULT_ANON, PteFlags
from tests.mm.buddy_state import machine_state

CONFIG = SystemConfig(node_pages=(32 * 1024, 32 * 1024), churn_ops=400)


def reference_space_munmap(space, vma):
    """The per-vpn ``AddressSpace.munmap``."""
    if space._vmas.get(vma.start_vpn) is not vma:
        raise AddressSpaceError(f"munmap of unknown VMA {vma!r}")
    removed = []
    vpn = vma.start_vpn
    while vpn < vma.end_vpn:
        walk = space.page_table.walk(vpn)
        if walk.hit:
            space.page_table.unmap(vpn)
            removed.append((walk.base_vpn, walk.pte))
            space.runs.remove(walk.base_vpn, 1 << walk.pte.order)
            vpn = walk.base_vpn + (1 << walk.pte.order)
        else:
            vpn += 1
    i = bisect.bisect_left(space._vma_starts, vma.start_vpn)
    del space._vma_starts[i]
    del space._vmas[vma.start_vpn]
    vma.mapped_pages = 0
    return removed


def reference_munmap(kernel, process, vma):
    """The per-leaf ``Kernel.munmap``."""
    kernel.policy.on_munmap(process.space, vma)
    for _base_vpn, pte in reference_space_munmap(process.space, vma):
        kernel._put_frame(pte.pfn, pte.order)


def reference_cow_scan(kernel, process, vpn, end):
    """The per-vpn ``Kernel._cow_scan``."""
    space = process.space
    majors = 0
    while vpn < end:
        walk = space.page_table.walk(vpn)
        if not walk.hit:
            vpn += 1
            continue
        if not walk.pte.flags & PteFlags.COW:
            vpn = walk.base_vpn + order_pages(walk.pte.order)
            continue
        result = kernel.fault(process, vpn, True)
        majors += 1
        vpn = result.vpn + order_pages(result.order) if not result.minor else vpn + 1
    return majors


def plant_mixed_stretches(kernel, process):
    """A VMA whose leaves are huge leaves physically next to 4K stretches.

    One 1024-frame block backs a 4K stretch that runs into a huge leaf,
    another a huge leaf followed by a 4K stretch; both stretches stop
    short of the block edge.
    """
    vma = kernel.mmap(process, 4 * HUGE_PAGES, flags=DEFAULT_ANON, name="mixed")
    flags = kernel._prot_flags(vma, write=True)
    space, start = process.space, vma.start_vpn
    layouts = (
        # [(vpn offset, frame offset, order)] within one 1024-frame block
        [(312 + i, 312 + i, 0) for i in range(200)] + [(512, 512, HUGE_ORDER)],
        [(1024, 0, HUGE_ORDER)] + [(1536 + i, 512 + i, 0) for i in range(200)],
    )
    for leaves in layouts:
        block = kernel.mem.alloc_block(HUGE_ORDER + 1, process.preferred_node)
        mapped = set()
        for vpn_off, frame_off, order in leaves:
            space.install(vma, start + vpn_off, block + frame_off, order, flags)
            kernel._account_frame(block + frame_off, order, owner=process.pid)
            mapped.update(range(block + frame_off,
                                block + frame_off + order_pages(order)))
        for pfn in range(block, block + 2 * HUGE_PAGES):
            if pfn not in mapped:
                kernel.mem.free_block(pfn, 0)
    return vma


def write_4k_stretches(kernel, process, vma, budget: int) -> None:
    """Write-touch VPN-consecutive 4K leaves of ``vma``, up to ``budget``."""
    stretches = []
    for vpn, pte in process.space.page_table.iter_leaves():
        if pte.huge or not vma.start_vpn <= vpn < vma.end_vpn:
            continue
        if stretches and stretches[-1][1] == vpn:
            stretches[-1][1] += 1
        else:
            stretches.append([vpn, vpn + 1])
    for start, end in stretches:
        n_pages = min(end - start, budget)
        if n_pages <= 0:
            break
        kernel.touch_range(process, start, n_pages)
        budget -= n_pages


def physically_adjacent_mixed_leaves(process) -> int:
    """Count VPN-consecutive leaf pairs of different sizes whose frames abut."""
    leaves = list(process.space.page_table.iter_leaves())
    return sum(
        1 for (_va, a), (_vb, b) in zip(leaves, leaves[1:])
        if a.huge != b.huge and b.pfn == a.pfn + order_pages(a.order)
    )


def snapshot(machine, kernel):
    return (
        machine_state(machine.mem),
        {p.pid: p.space.runs.generation for p in kernel.iter_processes()},
        machine.mem.free_pages,
    )


def run_lifetimes(policy: str, reference: bool, monkeypatch) -> list:
    """Build, fork and tear down processes; snapshot after each exit."""
    if reference:
        monkeypatch.setattr(Kernel, "munmap", reference_munmap)
        monkeypatch.setattr(Kernel, "_cow_scan", reference_cow_scan)
    machine = build_machine(policy, CONFIG)
    kernel = machine.kernel
    parent = kernel.create_process("parent")
    heap = kernel.mmap(parent, 3000, flags=DEFAULT_ANON, name="heap")
    sparse = kernel.mmap(parent, 2048, flags=DEFAULT_ANON, name="sparse")
    spare = kernel.mmap(parent, 1500, flags=DEFAULT_ANON, name="spare")
    kernel.touch_range(parent, heap.start_vpn + 100, 1500)
    kernel.touch_range(parent, heap.start_vpn + 2000, 900)
    for vpn in range(sparse.start_vpn, sparse.end_vpn, 3):
        kernel.touch_range(parent, vpn, 1)  # every third page
    kernel.touch_range(parent, spare.start_vpn + 7, 600)
    mixed = plant_mixed_stretches(kernel, parent)
    for _ in range(8):
        kernel.run_daemons()
    assert physically_adjacent_mixed_leaves(parent) >= 2

    bystander = kernel.create_process("bystander", preferred_node=1)
    other = kernel.mmap(bystander, 5000, flags=DEFAULT_ANON, name="heap")
    for vpn in range(other.start_vpn + 3, other.start_vpn + 4003, 2):
        kernel.touch_range(bystander, vpn, 1)  # every other page

    child = kernel.fork(parent)
    # COW breaks on both sides.  Ingens allocates 4K first, so it cannot
    # copy a huge leaf; the other policies also break a planted one.
    write_4k_stretches(kernel, child, heap, 500)
    write_4k_stretches(kernel, child, mixed, 60)
    write_4k_stretches(kernel, parent, sparse, 200)
    # The parent copies the middle of a 4K stretch the child still
    # shares, so the child's exit frees part of one physical stretch.
    kernel.touch_range(parent, mixed.start_vpn + 1536 + 50, 50)
    if policy != "ingens":
        kernel.touch_range(child, mixed.start_vpn + 1024, 8)
    assert kernel.cow_breaks > 0

    states = [snapshot(machine, kernel)]
    kernel.exit_process(child)  # the COW child exits before its parent
    states.append(snapshot(machine, kernel))
    kernel.munmap(parent, spare)
    states.append(snapshot(machine, kernel))
    kernel.exit_process(bystander)
    states.append(snapshot(machine, kernel))
    kernel.exit_process(parent)
    states.append(snapshot(machine, kernel))
    return states


@pytest.mark.parametrize("policy", ["thp", "ingens", "ca"])
def test_teardown_matches_per_vpn_reference(policy, monkeypatch):
    fast = run_lifetimes(policy, reference=False, monkeypatch=monkeypatch)
    with monkeypatch.context() as patch:
        slow = run_lifetimes(policy, reference=True, monkeypatch=patch)
    assert len(fast) == len(slow)
    for step, (a, b) in enumerate(zip(fast, slow)):
        assert a == b, f"state differs after teardown step {step}"
