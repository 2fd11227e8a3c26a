"""Unit tests for the kernel fault path (policy-independent behaviour)."""

import pytest

from repro.errors import AddressSpaceError
from repro.units import HUGE_ORDER, HUGE_PAGES
from repro.vm.flags import DEFAULT_ANON, PteFlags, VmaFlags

from tests.policies.conftest import machine


class TestFaultPath:
    def test_fault_maps_huge_when_eligible(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, HUGE_PAGES * 4)
        result = kern.fault(proc, vma.start_vpn)
        assert result.order == HUGE_ORDER
        assert proc.space.is_mapped(vma.start_vpn + 511)

    def test_fault_maps_base_page_in_small_vma(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, 64)
        result = kern.fault(proc, vma.start_vpn + 3)
        assert result.order == 0
        assert proc.space.is_mapped(vma.start_vpn + 3)
        assert not proc.space.is_mapped(vma.start_vpn + 4)

    def test_fault_outside_vma_segfaults(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        with pytest.raises(AddressSpaceError):
            kern.fault(proc, 0xDEAD)

    def test_refault_is_minor(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, 64)
        kern.fault(proc, vma.start_vpn)
        result = kern.fault(proc, vma.start_vpn)
        assert result.minor
        assert kern.minor_faults == 1

    def test_touch_range_faults_every_page(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, HUGE_PAGES * 2)
        majors = kern.touch_range(proc, vma.start_vpn, HUGE_PAGES * 2)
        assert majors == 2  # two huge faults
        assert proc.resident_pages == HUGE_PAGES * 2
        assert proc.touched_pages == HUGE_PAGES * 2

    def test_write_protection_flags(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        ro = kern.mmap(proc, 64, flags=VmaFlags.READ | VmaFlags.ANON)
        kern.fault(proc, ro.start_vpn, write=False)
        pte = proc.space.page_table.lookup(ro.start_vpn)
        assert not pte.flags & PteFlags.WRITE

    def test_exit_frees_all_frames(self, thp_machine):
        kern = thp_machine.kernel
        free_before = thp_machine.mem.free_pages
        proc = kern.create_process("t")
        vma = kern.mmap(proc, HUGE_PAGES * 4)
        kern.touch_range(proc, vma.start_vpn, HUGE_PAGES * 4)
        kern.exit_process(proc)
        assert thp_machine.mem.free_pages == free_before
        assert not proc.alive

    def test_thp_disabled_maps_base_pages(self):
        m = machine("ingens")  # ingens config turns THP off
        kern = m.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, HUGE_PAGES * 2)
        result = kern.fault(proc, vma.start_vpn)
        assert result.order == 0


class TestContigBit:
    def test_contig_bit_set_after_threshold(self, ca_machine):
        kern = ca_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, HUGE_PAGES * 8)
        kern.touch_range(proc, vma.start_vpn, HUGE_PAGES * 2)
        assert kern.pte_contiguous(proc, vma.start_vpn)
        pte = proc.space.page_table.lookup(vma.start_vpn)
        assert pte.flags & PteFlags.CONTIG

    def test_no_contig_bit_below_threshold(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, 16)  # < 32-page threshold
        kern.touch_range(proc, vma.start_vpn, 16)
        assert not kern.pte_contiguous(proc, vma.start_vpn)


class TestForkCow:
    def test_fork_shares_frames(self, thp_machine):
        kern = thp_machine.kernel
        parent = kern.create_process("p")
        vma = kern.mmap(parent, 64)
        kern.touch_range(parent, vma.start_vpn, 8)
        used_before = thp_machine.mem.n_pages - thp_machine.mem.free_pages
        child = kern.fork(parent)
        used_after = thp_machine.mem.n_pages - thp_machine.mem.free_pages
        assert used_after == used_before  # no copies yet
        assert child.space.translate(vma.start_vpn) == parent.space.translate(
            vma.start_vpn
        )

    def test_cow_write_copies(self, thp_machine):
        kern = thp_machine.kernel
        parent = kern.create_process("p")
        vma = kern.mmap(parent, 64)
        kern.touch_range(parent, vma.start_vpn, 8)
        child = kern.fork(parent)
        result = kern.fault(child, vma.start_vpn, write=True)
        assert result.cow_break
        assert child.space.translate(vma.start_vpn) != parent.space.translate(
            vma.start_vpn
        )
        assert kern.cow_breaks == 1

    def test_cow_read_does_not_copy(self, thp_machine):
        kern = thp_machine.kernel
        parent = kern.create_process("p")
        vma = kern.mmap(parent, 64)
        kern.touch_range(parent, vma.start_vpn, 8)
        child = kern.fork(parent)
        result = kern.fault(child, vma.start_vpn, write=False)
        assert result.minor

    def test_exit_of_forked_pair_frees_everything(self, thp_machine):
        kern = thp_machine.kernel
        free_before = thp_machine.mem.free_pages
        parent = kern.create_process("p")
        vma = kern.mmap(parent, 64)
        kern.touch_range(parent, vma.start_vpn, 16)
        child = kern.fork(parent)
        kern.fault(child, vma.start_vpn, write=True)
        kern.exit_process(child)
        kern.exit_process(parent)
        assert thp_machine.mem.free_pages == free_before


class TestPageCacheIntegration:
    def test_file_read_allocates_frames(self, ca_machine):
        kern = ca_machine.kernel
        f = kern.page_cache.open(256, name="data.bin")
        fill = kern.file_read(f, 0)
        assert [i for i, _ in fill] == list(range(kern.page_cache.readahead_pages))
        assert all(pfn >= 0 for _, pfn in fill)
        assert f.resident_pages == kern.page_cache.readahead_pages

    def test_ca_makes_file_pages_contiguous(self, ca_machine):
        kern = ca_machine.kernel
        f = kern.page_cache.open(256)
        for index in range(0, 256, 8):
            kern.file_read(f, index)
        runs = kern.page_cache.runs[f.inode]
        assert runs.run_length_at(0) == 256

    def test_drop_file_frees_frames(self, ca_machine):
        kern = ca_machine.kernel
        free_before = ca_machine.mem.free_pages
        f = kern.page_cache.open(64)
        for index in range(0, 64, 8):
            kern.file_read(f, index)
        kern.drop_file(f)
        assert ca_machine.mem.free_pages == free_before


class TestFaultAccounting:
    def test_fault_events_recorded(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, HUGE_PAGES)
        kern.fault(proc, vma.start_vpn)
        assert kern.major_faults == 1
        (event,) = kern.fault_events
        assert event.order == HUGE_ORDER
        assert event.latency_us > 500  # ~515us THP fault (Table V regime)

    def test_base_fault_is_cheap(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, 16)
        kern.fault(proc, vma.start_vpn)
        (event,) = kern.fault_events
        assert event.latency_us < 10

    def test_reset_fault_stats(self, thp_machine):
        kern = thp_machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, 16)
        kern.fault(proc, vma.start_vpn)
        kern.reset_fault_stats()
        assert kern.major_faults == 0
