"""Unit tests for vRMM, Direct Segments, vHC, the coalesced TLB and walk model."""

import numpy as np
import pytest

from repro.hw.coalesced_tlb import CoalescedTlb
from repro.hw.direct_segment import DirectSegment
from repro.hw.hybrid_coalescing import (
    anchor_distance_for,
    anchors_for_run,
    vhc_entries_for_coverage,
)
from repro.hw.rmm import RANGE_FILL, RANGE_HIT, UNCOVERED, RangeTlb, ranges_for_coverage
from repro.hw.walk import WalkLatencyModel
from repro.vm.mapping_runs import MappingRun
from tests.hw.conformance import ctlb_state


class TestRangeTlb:
    def test_fill_then_hit(self):
        tlb = RangeTlb(entries=4)
        assert tlb.on_miss(100, run_start=0, run_len=1000) == RANGE_FILL
        assert tlb.on_miss(500, run_start=0, run_len=1000) == RANGE_HIT

    def test_small_runs_stay_uncovered(self):
        tlb = RangeTlb(entries=4, min_range_pages=32)
        assert tlb.on_miss(5, run_start=0, run_len=8) == UNCOVERED
        assert tlb.stats.uncovered == 1

    def test_lru_capacity(self):
        tlb = RangeTlb(entries=2)
        tlb.on_miss(0, 0, 100)
        tlb.on_miss(1000, 1000, 100)
        tlb.on_miss(2000, 2000, 100)  # evicts range @0
        assert tlb.on_miss(50, 0, 100) == RANGE_FILL  # refill, not hit
        assert tlb.stats.range_hits == 0

    def test_hit_refreshes_lru(self):
        tlb = RangeTlb(entries=2)
        tlb.on_miss(0, 0, 100)
        tlb.on_miss(1000, 1000, 100)
        tlb.on_miss(50, 0, 100)  # hit refreshes range @0
        tlb.on_miss(2000, 2000, 100)  # evicts range @1000
        assert tlb.on_miss(60, 0, 100) == RANGE_HIT

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            RangeTlb(entries=0)

    def test_ranges_for_coverage(self):
        assert ranges_for_coverage([500, 300, 200], 1000, 0.99) == 3
        assert ranges_for_coverage([990, 10], 1000, 0.99) == 1


class TestDirectSegment:
    def test_inside_is_free(self):
        ds = DirectSegment()
        assert ds.on_miss(True)
        assert ds.stats.inside == 1 and ds.stats.outside == 0

    def test_outside_pays(self):
        ds = DirectSegment()
        assert not ds.on_miss(False)
        assert ds.stats.outside == 1
        assert ds.stats.total == 1


class TestHybridCoalescing:
    def test_anchor_distance_power_of_two(self):
        d = anchor_distance_for([100, 200, 300])
        assert d & (d - 1) == 0
        assert d <= 200  # <= average

    def test_empty_runs_distance(self):
        assert anchor_distance_for([]) == 1

    def test_aligned_run_needs_one_anchor(self):
        run = MappingRun(start_vpn=0, start_pfn=0, n_pages=64)
        assert anchors_for_run(run, 64) == 1

    def test_unaligned_run_crosses_anchors(self):
        # The paper's point: an unaligned mapping crosses many anchor
        # strides, inflating the entry count versus one range.
        run = MappingRun(start_vpn=33, start_pfn=0, n_pages=64)
        assert anchors_for_run(run, 64) == 2
        run2 = MappingRun(start_vpn=1, start_pfn=0, n_pages=1024)
        assert anchors_for_run(run2, 64) == 17

    def test_vhc_entries_exceed_ranges(self):
        runs = [
            MappingRun(start_vpn=i * 10_000 + 3, start_pfn=0, n_pages=900)
            for i in range(5)
        ]
        footprint = sum(r.n_pages for r in runs)
        vhc = vhc_entries_for_coverage(runs, footprint, 0.99)
        assert vhc > 5  # more anchors than ranges

    def test_zero_footprint(self):
        assert vhc_entries_for_coverage([], 0) == 0


class TestWalkModel:
    def test_nested_reference_counts(self):
        assert WalkLatencyModel.nested_references(4, 4) == 24  # paper §II
        assert WalkLatencyModel.nested_references(3, 3) == 15

    def test_native_walk_cheaper_than_nested(self):
        costs = WalkLatencyModel().walk_costs()
        assert costs.native_thp < costs.nested_thp
        assert costs.native_4k < costs.nested_4k

    def test_thp_walk_cheaper_than_4k(self):
        costs = WalkLatencyModel().walk_costs()
        assert costs.nested_thp < costs.nested_4k
        assert costs.native_thp < costs.native_4k

    def test_calibrated_to_paper_nested_cost(self):
        # The paper measures ~81 cycles for the average nested walk.
        costs = WalkLatencyModel().walk_costs()
        assert 70 <= costs.nested_thp <= 95

    def test_pwc_reduces_cost(self):
        fast = WalkLatencyModel(pwc_hit_rate=0.9)
        slow = WalkLatencyModel(pwc_hit_rate=0.0)
        assert fast.cycles(24) < slow.cycles(24)


class TestCoalescedTlbBatch:
    def test_warm_entry_covers_runs_past_the_first_segment(self):
        # A warm interval installed under an earlier run table can cover
        # several runs of the next batch; it stays until the first miss.
        ref = CoalescedTlb(64, 4, span_pages=16)
        vec = CoalescedTlb(64, 4, span_pages=16)
        warm = (np.array([0]), np.array([0]), np.array([16]))
        batch = (np.array([1, 5]), np.array([0, 4]), np.array([4, 4]))
        for stream in (warm, batch):
            hits = [ref.on_miss(*e) for e in zip(*(a.tolist() for a in stream))]
            assert vec.on_miss_batch(*stream) == (sum(hits), len(hits) - sum(hits))
        assert ctlb_state(vec) == ctlb_state(ref)
