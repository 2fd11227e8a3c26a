"""Unit tests for the shared experiment plumbing."""

from dataclasses import asdict

import pytest

from repro.experiments import common
from repro.sim.config import MIB, TEST_SCALE, HardwareConfig, ScaleProfile


class TestFormatTable:
    def test_alignment(self):
        out = common.format_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = out.splitlines()
        assert lines[0].endswith("bb")
        assert lines[1].startswith("-")
        # Columns right-justified: the widest cell sets the width.
        assert lines[2].index("1") >= 2

    def test_empty_rows(self):
        out = common.format_table(("x",), [])
        assert "x" in out

    def test_pct(self):
        assert common.pct(0.1234) == "12.3%"
        assert common.pct(0) == "0.0%"


class TestGeomean:
    def test_basic(self):
        assert common.geomean([2, 8]) == pytest.approx(4.0)

    def test_empty(self):
        assert common.geomean([]) == 0.0

    def test_zero_floored(self):
        assert common.geomean([0.0, 4.0]) > 0


class TestBuilders:
    def test_native_machine_applies_policy_config(self):
        m = common.native_machine("ca", TEST_SCALE)
        assert m.config.sorted_max_order
        assert m.policy.name == "ca"

    def test_virtual_machine_spans_host(self):
        vm = common.virtual_machine("thp", "ca", TEST_SCALE)
        assert vm.guest_pages == sum(vm.host.config.node_pages)
        assert vm.guest_kernel.policy.name == "ca"
        assert vm.host.policy.name == "thp"

    def test_workload_builder(self):
        wl = common.workload("svm", TEST_SCALE, seed=3)
        assert wl.seed == 3

    def test_suite_is_table_iii_order(self):
        assert common.SUITE == ("svm", "pagerank", "hashjoin", "xsbench", "bt")


class TestNativeSimCell:
    #: Two 128 MiB nodes: room for the svm run under a 50% hog.
    SCALE = ScaleProfile(name="sim-cell", bytes_per_paper_gb=MIB,
                         machine_paper_gb=(128, 128))

    def sim(self, **kwargs) -> dict:
        [result] = common.run_cell_native_sim(
            workload="svm", policy="ca", scale=self.SCALE,
            hw=HardwareConfig(), trace_len=5000, **kwargs,
        )
        return asdict(result)

    def test_seed_and_hog_reach_the_simulated_run(self):
        base = self.sim()
        assert self.sim(seed=0, hog=0.0) == base
        assert self.sim(seed=5) != base
        assert self.sim(hog=0.5) != base


class TestResultDescribe:
    def test_run_result_describe(self):
        from repro.metrics.contiguity import ContiguitySample
        from repro.sim.results import RunResult

        r = RunResult(
            workload="svm", policy="ca", virtualized=True,
            footprint_pages=100,
            final=ContiguitySample(100, 100, 0.5, 0.9, 7, 9),
        )
        text = r.describe()
        assert "svm" in text and "virt" in text and "7" in text


class TestKernelTick:
    def test_tick_fires_every_n_faults(self):
        from repro.policies.base import PlacementPolicy
        from repro.sim.config import SystemConfig
        from repro.sim.machine import Machine

        class CountingPolicy(PlacementPolicy):
            name = "counting"
            ticks = 0

            def tick(self, kernel):
                type(self).ticks += 1

        cfg = SystemConfig(node_pages=(4096,), tick_every_faults=8,
                           churn_ops=0, reserve_fraction=0.0)
        machine = Machine(cfg, CountingPolicy(), aged=False)
        kern = machine.kernel
        proc = kern.create_process("t")
        vma = kern.mmap(proc, 64)
        for i in range(32):
            kern.fault(proc, vma.start_vpn + i)
        assert CountingPolicy.ticks == 4
