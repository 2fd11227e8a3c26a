"""Unit tests for address spaces, VMAs, and the page cache."""

import pytest

from repro.errors import AddressSpaceError, MappingError
from repro.sim import transport
from repro.units import HUGE_ORDER, HUGE_PAGES
from repro.vm.address_space import DEFAULT_MMAP_BASE_VPN, AddressSpace
from repro.vm.flags import DEFAULT_ANON, PteFlags, VmaFlags
from repro.vm.page_cache import PageCache
from repro.vm.vma import Vma


class TestVmaManagement:
    def test_mmap_creates_huge_aligned_vma(self):
        space = AddressSpace()
        vma = space.mmap(1000, DEFAULT_ANON, name="heap")
        assert vma.start_vpn % HUGE_PAGES == 0
        assert vma.n_pages == 1000

    def test_vmas_never_virtually_adjacent(self):
        space = AddressSpace()
        a = space.mmap(HUGE_PAGES, DEFAULT_ANON)
        b = space.mmap(HUGE_PAGES, DEFAULT_ANON)
        assert b.start_vpn >= a.end_vpn + 1

    def test_fixed_address_mmap(self):
        space = AddressSpace()
        vma = space.mmap(64, DEFAULT_ANON, at_vpn=HUGE_PAGES * 10)
        assert vma.start_vpn == HUGE_PAGES * 10

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.mmap(64, DEFAULT_ANON, at_vpn=0)
        with pytest.raises(AddressSpaceError):
            space.mmap(64, DEFAULT_ANON, at_vpn=32)

    def test_zero_pages_rejected(self):
        space = AddressSpace()
        with pytest.raises(AddressSpaceError):
            space.mmap(0, DEFAULT_ANON)

    def test_vma_at(self):
        space = AddressSpace()
        vma = space.mmap(64, DEFAULT_ANON, at_vpn=0)
        assert space.vma_at(10) is vma
        assert space.vma_at(64) is None

    def test_munmap_removes_mappings(self):
        space = AddressSpace()
        vma = space.mmap(64, DEFAULT_ANON, at_vpn=0)
        space.install(vma, 5, 500, 0, PteFlags.NONE)
        removed = space.munmap(vma)
        assert [(v, p.pfn) for v, p in removed] == [(5, 500)]
        assert space.vma_count == 0
        assert space.resident_pages == 0

    def test_munmap_unknown_vma_rejected(self):
        space = AddressSpace()
        with pytest.raises(AddressSpaceError):
            space.munmap(Vma(0, 10, DEFAULT_ANON))


class TestInstall:
    def test_install_updates_runs_and_accounting(self):
        space = AddressSpace()
        vma = space.mmap(1024, DEFAULT_ANON, at_vpn=0)
        space.install(vma, 0, 100, 0, PteFlags.NONE)
        space.install(vma, 1, 101, 0, PteFlags.NONE)
        assert space.runs.run_length_at(0) == 2
        assert vma.mapped_pages == 2
        assert vma.unmapped_pages == 1022

    def test_install_huge(self):
        space = AddressSpace()
        vma = space.mmap(1024, DEFAULT_ANON, at_vpn=0)
        space.install(vma, 0, 512, HUGE_ORDER, PteFlags.NONE)
        assert space.translate(511) == 1023
        assert vma.mapped_pages == 512

    def test_uninstall(self):
        space = AddressSpace()
        vma = space.mmap(1024, DEFAULT_ANON, at_vpn=0)
        space.install(vma, 0, 512, HUGE_ORDER, PteFlags.NONE)
        pte = space.uninstall(vma, 100)  # interior page of the huge leaf
        assert pte.pfn == 512
        assert vma.mapped_pages == 0
        assert space.resident_pages == 0

    def test_uninstall_unmapped_rejected(self):
        space = AddressSpace()
        vma = space.mmap(64, DEFAULT_ANON, at_vpn=0)
        with pytest.raises(MappingError):
            space.uninstall(vma, 5)


class TestCheckpointLayout:
    """Checkpoint digests cover the pickled layout, so it stays frozen:
    the two retired column-mirror keys are still emitted, and dropped
    again on load."""

    def test_getstate_emits_the_frozen_layout(self):
        state = AddressSpace().__getstate__()
        assert list(state) == [
            "page_table", "runs", "_vma_starts", "_vmas", "_mmap_cursor",
            "columnar", "_columns",
        ]
        assert state["_vma_starts"] == [] and state["_vmas"] == {}
        assert state["_mmap_cursor"] == DEFAULT_MMAP_BASE_VPN
        assert state["columnar"] is False
        assert state["_columns"] == {}

    def test_round_trip_drops_the_legacy_keys(self):
        space = AddressSpace()
        vma = space.mmap(1024, DEFAULT_ANON, at_vpn=0)
        space.install(vma, 0, 100, 0, PteFlags.NONE)
        revived = transport.loads(transport.dumps(space))
        assert not hasattr(revived, "columnar")
        assert not hasattr(revived, "_columns")
        assert revived.translate(0) == 100
        assert revived.vma_at(0).mapped_pages == 1


class TestHugeCandidate:
    def test_aligned_interior_region_is_eligible(self):
        space = AddressSpace()
        vma = space.mmap(HUGE_PAGES * 4, DEFAULT_ANON, at_vpn=0)
        assert space.huge_candidate(vma, HUGE_PAGES + 5) == HUGE_PAGES

    def test_region_crossing_vma_end_rejected(self):
        space = AddressSpace()
        vma = space.mmap(HUGE_PAGES + 10, DEFAULT_ANON, at_vpn=0)
        assert space.huge_candidate(vma, HUGE_PAGES + 5) is None

    def test_nohuge_vma_rejected(self):
        space = AddressSpace()
        vma = space.mmap(HUGE_PAGES * 2, DEFAULT_ANON | VmaFlags.NOHUGE, at_vpn=0)
        assert space.huge_candidate(vma, 0) is None

    def test_partially_mapped_region_rejected(self):
        space = AddressSpace()
        vma = space.mmap(HUGE_PAGES * 2, DEFAULT_ANON, at_vpn=0)
        space.install(vma, 3, 999, 0, PteFlags.NONE)
        assert space.huge_candidate(vma, 5) is None
        assert space.huge_candidate(vma, HUGE_PAGES) == HUGE_PAGES


class TestVmaOffsets:
    def test_record_and_pick_closest(self):
        vma = Vma(0, 10000, DEFAULT_ANON)
        vma.record_offset(fault_vpn=0, offset=50)
        vma.record_offset(fault_vpn=5000, offset=900)
        assert vma.pick_offset(100).offset == 50
        assert vma.pick_offset(4800).offset == 900

    def test_fifo_eviction(self):
        vma = Vma(0, 10, DEFAULT_ANON, max_offsets=3)
        for i in range(5):
            vma.record_offset(i, i * 10)
        assert len(vma.offsets) == 3
        assert vma.offsets[0].fault_vpn == 2

    def test_pick_empty_is_none(self):
        vma = Vma(0, 10, DEFAULT_ANON)
        assert vma.pick_offset(3) is None

    def test_replacement_flag_is_exclusive(self):
        vma = Vma(0, 10, DEFAULT_ANON)
        assert vma.try_begin_replacement()
        assert not vma.try_begin_replacement()
        vma.end_replacement()
        assert vma.try_begin_replacement()


class TestPageCache:
    def _seq_allocator(self, start=1000):
        state = {"next": start}

        def allocate(file, index, n):
            pfns = list(range(state["next"], state["next"] + n))
            state["next"] += n
            return pfns

        return allocate

    def test_read_populates_readahead_window(self):
        cache = PageCache(readahead_pages=4)
        f = cache.open(100)
        cache.read(f, 0, self._seq_allocator())
        assert f.resident_pages == 4
        assert cache.readahead_count == 3

    def test_hit_does_not_reallocate(self):
        cache = PageCache(readahead_pages=4)
        f = cache.open(100)
        fill = cache.read(f, 1, self._seq_allocator())
        assert cache.read(f, 1, None) == []  # allocator unused on hit
        assert f.pages[1] == fill[0][1] == 1000
        assert cache.fault_count == 1

    def test_window_clamped_at_eof(self):
        cache = PageCache(readahead_pages=8)
        f = cache.open(5)
        cache.read(f, 3, self._seq_allocator())
        assert f.resident_pages == 2

    def test_window_stops_at_resident_page(self):
        cache = PageCache(readahead_pages=8)
        f = cache.open(100)
        cache.read(f, 4, self._seq_allocator(start=5000))
        cache.read(f, 0, self._seq_allocator(start=9000))
        # Second read stops before index 4 which is already resident.
        assert f.pages[3] == 9003
        assert f.pages[4] == 5000

    def test_out_of_range_read_rejected(self):
        cache = PageCache()
        f = cache.open(10)
        with pytest.raises(AddressSpaceError):
            cache.read(f, 10, self._seq_allocator())

    def test_drop_releases_all(self):
        cache = PageCache(readahead_pages=4)
        f = cache.open(100)
        cache.read(f, 0, self._seq_allocator())
        released = []
        assert cache.drop(f, lambda pfn, n: released.append((pfn, n))) == 4
        # One call per stretch contiguous in both file index and frame.
        assert released == [(1000, 4)]
        assert cache.resident_pages == 0

    def test_drop_releases_one_span_per_contiguous_stretch(self):
        cache = PageCache(readahead_pages=4)
        f = cache.open(16)
        frames = iter([10, 11, 12, 20, 21, 22, 23, 30, 31, 32, 33, 40])
        for index in (0, 4, 8):
            cache.read(f, index, lambda file, i, n: [next(frames) for _ in range(n)])
        cache.read(f, 13, lambda file, i, n: [41, 42, 43])
        # Frame 20 at index 3 does not follow frame 12 at index 2, and
        # index 13 does not follow index 11: each starts a new stretch.
        released = []
        assert cache.drop(f, lambda pfn, n: released.append((pfn, n))) == 15
        assert released == [(10, 3), (20, 4), (30, 4), (40, 1), (41, 3)]
        assert cache.resident_pages == 0 and not cache.frame_owner

    def test_contiguity_runs_tracked(self):
        cache = PageCache(readahead_pages=4)
        f = cache.open(100)
        cache.read(f, 0, self._seq_allocator())
        assert cache.runs[f.inode].run_length_at(0) == 4

    def test_zero_page_file_rejected(self):
        cache = PageCache()
        with pytest.raises(AddressSpaceError):
            cache.open(0)
