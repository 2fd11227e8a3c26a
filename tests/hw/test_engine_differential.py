"""MMU replay vs its per-access reference, on real memory states.

The batched replay's claim is *bit-identical* counters, not approximate
agreement.  The per-machine differentials (TLB hierarchy included) live
in the scheme-conformance battery (``tests/hw/test_conformance.py``);
here we pin what the battery cannot: the hash/set-index replication
against CPython directly — the whole construction stands on it — and
the full :class:`MmuSimResult` plus the TLB hierarchy's and every
scheme machine's end state against the per-access loop in
``tests/reference.py``.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.hw import vector_tlb as vt
from repro.hw.mmu_sim import MmuSimulator
from repro.hw.translation import TranslationView
from repro.sim.config import TEST_SCALE, HardwareConfig
from repro.sim.machine import build_machine
from repro.sim.runner import RunOptions, run_native, run_virtualized
from repro.units import order_pages
from repro.virt.hypervisor import VirtualMachine
from repro.workloads import make_workload
from tests.hw.conformance import mmu_state
from tests.policies.conftest import SMALL
from tests.reference import PATHS, paths


class TestHashReplication:
    def test_key_hashes_match_cpython(self):
        rng = np.random.default_rng(7)
        base = np.asarray(
            list(rng.integers(0, 2**40, 500)) + [0, 1, 2**30], dtype=np.int64
        )
        huge = np.asarray(rng.random(base.size) < 0.5, dtype=bool)
        got = vt.key_hashes(base, huge)
        for b, h, v in zip(base.tolist(), huge.tolist(), got.tolist()):
            assert v == hash((b, bool(h))) % 2**64

    @pytest.mark.parametrize("n_sets", [1, 2, 3, 4, 6, 16, 256])
    def test_set_indices_match_set_of(self, n_sets):
        rng = np.random.default_rng(11)
        base = np.asarray(rng.integers(0, 2**40, 400), dtype=np.int64)
        huge = np.asarray(rng.random(400) < 0.5, dtype=bool)
        got = vt.set_indices(vt.key_hashes(base, huge), n_sets)
        for b, h, s in zip(base.tolist(), huge.tolist(), got.tolist()):
            assert s == ((hash((b, bool(h))) * 0x9E3779B1) >> 12) % n_sets


def native_state(workload_name="svm"):
    machine = build_machine("thp", SMALL)
    wl = make_workload(workload_name, TEST_SCALE)
    result = run_native(machine, wl, RunOptions(sample_every=None, exit_after=False))
    return wl, result


def virt_state(workload_name="svm", policy="ca"):
    host = build_machine(policy, SMALL)
    guest_pages = sum(SMALL.node_pages)
    guest_pages -= guest_pages % order_pages(SMALL.max_order)
    vm = VirtualMachine(host, guest_pages, policy)
    wl = make_workload(workload_name, TEST_SCALE)
    r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
    return vm, wl, r


def run_path(view, trace, starts, wl, path, hw=None):
    sim = MmuSimulator(view, hw or HardwareConfig())
    with paths(path):
        result = asdict(sim.run(trace, starts, workload=wl))
    return result, mmu_state(sim), sim


def assert_paths_agree(view, trace, starts, wl, hw=None):
    """Batched replay and per-access reference: same counters, same
    machine states; returns the batched run's counters and simulator."""
    runs = {path: run_path(view, trace, starts, wl, path, hw) for path in PATHS}
    fast, fast_states, sim = runs["fast"]
    scalar, scalar_states, _ = runs["scalar"]
    assert scalar == fast
    assert scalar_states == fast_states
    return fast, sim


class TestMmuSimulatorDifferential:
    def test_native_thp(self):
        wl, r = native_state()
        view = TranslationView.native(r.process)
        assert_paths_agree(view, wl.trace(30_000), r.vma_start_vpns, wl)

    def test_native_4k_forced(self):
        wl, r = native_state()
        view = TranslationView.native(r.process, force_4k=True)
        result, _ = assert_paths_agree(
            view, wl.trace(30_000), r.vma_start_vpns, wl
        )
        assert not result["huge"]

    def test_virtualized(self):
        vm, wl, r = virt_state()
        view = TranslationView.virtualized(vm, r.process)
        result, _ = assert_paths_agree(
            view, wl.trace(30_000), r.vma_start_vpns, wl
        )
        assert result["virtualized"]

    def test_virtualized_4k_range_tlb_evicts(self):
        """THP+THP splinters xsbench into dozens of 2D runs, more than
        the range TLB holds."""
        vm, wl, r = virt_state("xsbench", policy="thp")
        view = TranslationView.virtualized(vm, r.process, force_4k=True)
        result, sim = assert_paths_agree(
            view, wl.trace(20_000), r.vma_start_vpns, wl
        )
        assert not result["huge"]
        assert sim.rmm.stats.range_fills > sim.rmm.entries

    def test_utopia_refuses_promotions(self):
        """A small RestSeg admits a few runs and refuses the rest; two
        segments reject most runs."""
        vm, wl, r = virt_state("xsbench", policy="thp")
        view = TranslationView.virtualized(vm, r.process, force_4k=True)
        hw = HardwareConfig(utopia_restseg_pages=4096, seg_max_segments=2)
        _, sim = assert_paths_agree(
            view, wl.trace(20_000), r.vma_start_vpns, wl, hw
        )
        u = sim.utopia
        refused = [
            start for start, count in u._miss_counts.items()
            if count >= u.promote_after and start not in u._promoted
        ]
        assert u.stats.promotions > 0 and refused
        assert sim.seg._rejected
