"""Edge cases for the kernel's batched frame-span accounting helpers.

The kernel charges and releases physical frames in spans
(`_account_frame_span` / `_put_frame_span`, and the buddy's `free_span`).
These must tolerate degenerate inputs — zero-page spans are produced
naturally when a batched fault claims nothing or an uninstall yields an
empty stretch — and must stay bit-identical to the per-frame reference.
"""

from repro.sim.config import SystemConfig
from repro.sim.machine import build_machine
from tests.mm.buddy_state import machine_state

TINY = SystemConfig(node_pages=(4 * 1024, 4 * 1024), churn_ops=0)


def fresh_kernel():
    machine = build_machine("thp", TINY, aged=False)
    return machine, machine.kernel


class TestZeroPageSpans:
    def test_account_zero_span_is_a_noop(self):
        machine, kernel = fresh_kernel()
        zone = machine.mem.zone_of(0)
        before = zone.frames.mapcount.copy()
        kernel._account_frame_span(0, 0, owner=7)
        assert (zone.frames.mapcount == before).all()

    def test_put_zero_span_is_a_noop(self):
        machine, kernel = fresh_kernel()
        free_before = machine.mem.free_pages
        kernel._put_frame_span(0, 0)
        assert machine.mem.free_pages == free_before

    def test_free_aligned_zero_span_is_a_noop(self):
        machine, kernel = fresh_kernel()
        zone = machine.mem.zone_of(0)
        free_before = machine.mem.free_pages
        zone.free_span(0, 0)
        zone.free_span(zone.end_pfn, 0)
        assert machine.mem.free_pages == free_before

    def test_put_span_at_node_boundary_pfn(self):
        # A zero-length span whose pfn sits exactly at a node boundary
        # must not consult the next zone at all.
        machine, kernel = fresh_kernel()
        boundary = machine.mem.zone_of(0).end_pfn
        free_before = machine.mem.free_pages
        kernel._put_frame_span(boundary, 0)
        assert machine.mem.free_pages == free_before


class TestSpanRoundTrip:
    def test_account_then_put_restores_free_memory(self):
        machine, kernel = fresh_kernel()
        pfns = machine.mem.alloc_pages_bulk(96)
        assert len(pfns) == 96
        base = int(pfns[0])
        # The bulk stream is contiguous from a fresh block head.
        assert pfns.tolist() == list(range(base, base + 96))
        free_mid = machine.mem.free_pages
        kernel._account_frame_span(base, 96, owner=3)
        zone = machine.mem.zone_of(base)
        i = zone.frames.index(base)
        assert (zone.frames.mapcount[i:i + 96] == 1).all()
        assert (zone.frames.owner[i:i + 96] == 3).all()
        kernel._put_frame_span(base, 96)
        assert machine.mem.free_pages == free_mid + 96
        assert (zone.frames.mapcount[i:i + 96] == 0).all()

    def test_put_span_matches_per_frame_reference(self):
        # (3, 34) leaves mapped frames on both sides of a misaligned
        # stretch, so its blocks land in several free lists.
        for skip, n in ((0, 40), (3, 34)):
            results = []
            for batched in (True, False):
                machine, kernel = fresh_kernel()
                pfns = machine.mem.alloc_pages_bulk(40)
                base = int(pfns[0])
                kernel._account_frame_span(base, 40, owner=1)
                if batched:
                    kernel._put_frame_span(base + skip, n)
                else:
                    for p in range(base + skip, base + skip + n):
                        kernel._put_frame(p, 0)
                results.append(machine_state(machine.mem))
            # Free-list contents in FIFO order plus every frame column.
            assert results[0] == results[1]

    def test_cow_shared_tail_survives_span_put(self):
        # Frames still mapped elsewhere (mapcount > 1) must not be freed
        # by a span put — the per-frame fallback path.
        machine, kernel = fresh_kernel()
        pfns = machine.mem.alloc_pages_bulk(16)
        base = int(pfns[0])
        kernel._account_frame_span(base, 16, owner=1)
        kernel._account_frame_span(base + 8, 8, owner=2)  # share the tail
        free_mid = machine.mem.free_pages
        kernel._put_frame_span(base, 16)
        # Only the unshared head [base, base+8) was actually freed.
        assert machine.mem.free_pages == free_mid + 8
        zone = machine.mem.zone_of(base)
        i = zone.frames.index(base)
        assert (zone.frames.mapcount[i:i + 8] == 0).all()
        assert (zone.frames.mapcount[i + 8:i + 16] == 1).all()
