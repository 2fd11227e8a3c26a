"""Unit tests for the vHC anchor-coalescing TLB."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.vhc import VhcTlb


class TestVhcTlb:
    def test_bad_distance_rejected(self):
        with pytest.raises(ConfigError):
            VhcTlb(distance=100)
        with pytest.raises(ConfigError):
            VhcTlb(distance=0)

    def test_sequential_stream_hits_within_anchor(self):
        tlb = VhcTlb(distance=4096)
        run_start, run_len = 0, 100_000
        for vpn in range(0, 20_000):
            tlb.access(vpn, run_start, run_len)
        # One walk per anchor stride (aligned run).
        assert tlb.stats.walks == 20_000 // 4096 + 1

    def test_unaligned_head_fragment_uses_regular_entries(self):
        tlb = VhcTlb(distance=4096)
        run_start = 1000  # unaligned
        misses_head = 0
        for vpn in range(1000, 4096):
            misses_head += not tlb.access(vpn, run_start, 100_000)
        # The head fragment coalesces at regular (2M) granularity: far
        # more walks than one, far fewer than one per page.
        assert 1 < misses_head <= (4096 - 1000) // 512 + 1

    def test_anchor_reach_capped_by_distance(self):
        tlb = VhcTlb(distance=64)
        for vpn in range(0, 1024):
            tlb.access(vpn, 0, 100_000)
        assert tlb.stats.walks == 1024 // 64
        assert tlb.stats.avg_pages_per_entry == 64.0

    def test_small_runs_fall_back_to_regular(self):
        tlb = VhcTlb(distance=4096)
        # Runs of 8 pages at scattered anchors: no usable anchor base.
        walks = 0
        for base in range(100, 100_000, 10_000):
            for vpn in range(base, base + 8):
                walks += not tlb.access(vpn, base, 8)
        assert walks == 10  # one regular-entry fill per run

    def test_miss_rate_property(self):
        tlb = VhcTlb()
        assert tlb.stats.miss_rate == 0.0
        tlb.access(0, 0, 10)
        assert tlb.stats.miss_rate == 1.0

    def test_alignment_penalty_vs_distance(self):
        """Smaller anchor distances slice runs finer: more walks."""
        walks = {}
        for d in (64, 4096):
            tlb = VhcTlb(distance=d)
            for vpn in range(0, 30_000):
                tlb.access(vpn, 0, 100_000)
            walks[d] = tlb.stats.walks
        assert walks[64] > walks[4096] * 10

    def test_replay_is_independent_of_the_string_hash_seed(self):
        """Set indices come from ``hash(key)``; a str anywhere in a key
        would make them (and every counter) vary with PYTHONHASHSEED."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.hw.vhc import VhcTlb\n"
            "tlb = VhcTlb(entries=24, ways=6, distance=4096)\n"
            "for i in range(20_000):\n"
            "    vpn = (i * 7919) % 200_000\n"
            "    start = vpn - vpn % 3000 + 17\n"
            "    tlb.access(vpn, start, 3000)\n"
            "print(tlb.stats)\n"
        )
        outs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            outs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outs) == 1, outs
