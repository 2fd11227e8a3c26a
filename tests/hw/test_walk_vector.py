"""End-to-end differential for the MmuSimulator walk path.

The per-machine scalar-vs-batched differentials (SpOT, vRMM, DS, cTLB,
Utopia, segmentation, vHC) live in the scheme conformance battery —
``tests/hw/test_conformance.py`` over the :mod:`tests.hw.conformance`
registry.  These tests cover the layer above: :class:`MmuSimulator`
wiring the TLB hierarchy and every scheme machine into the batched
replay with a :class:`MmuSimResult` and end state bit-identical to the
per-access reference (``tests/reference.py``), across
``HardwareConfig`` geometries on a forced-4K native THP view and a
forced-4K virtualized CA+CA view, where nearly every access walks.
"""

import pytest

from repro.hw.mmu_sim import MmuSimulator
from repro.hw.translation import TranslationView
from repro.sim.config import HardwareConfig
from tests.hw.test_engine_differential import (
    assert_paths_agree,
    native_state,
    virt_state,
)

HW_CONFIGS = [
    HardwareConfig(),
    HardwareConfig(spot_confidence=False, spot_entries=16),
    # Tight geometries for the related-work schemes: small span,
    # instant promotion, two segments — maximal divergence pressure.
    HardwareConfig(ctlb_entries=16, ctlb_span_pages=8,
                   utopia_restseg_pages=512, utopia_promote_after=1,
                   seg_max_segments=2),
]

HW_IDS = ["default", "small-noconf", "tight-new-schemes"]


@pytest.fixture(scope="module")
def native():
    wl, r = native_state()
    return wl, r, wl.trace(20_000)


@pytest.fixture(scope="module")
def virt():
    vm, wl, r = virt_state()
    return vm, wl, r, wl.trace(20_000)


class TestMmuSimulatorWalkPath:
    @pytest.mark.parametrize("hw", HW_CONFIGS, ids=HW_IDS)
    def test_scheme_switches_differential(self, native, virt, hw):
        wl, r, trace = native
        view = TranslationView.native(r.process, force_4k=True)
        assert_paths_agree(view, trace, r.vma_start_vpns, wl, hw)
        vm, wl, r, trace = virt
        view = TranslationView.virtualized(vm, r.process, force_4k=True)
        assert_paths_agree(view, trace, r.vma_start_vpns, wl, hw)

    def test_new_scheme_counters_cover_all_walks(self, native):
        """Defaults-on schemes partition the walk stream."""
        wl, r, trace = native
        view = TranslationView.native(r.process, force_4k=True)
        sim = MmuSimulator(view, HardwareConfig())
        res = sim.run(trace, r.vma_start_vpns, workload=wl)
        assert res.utopia_rest + res.utopia_flex == res.walks
        assert sim.ctlb.stats.total == res.walks
        assert sim.seg.stats.total == res.walks
        assert 0 <= res.ctlb_uncovered <= res.walks
        assert 0 <= res.seg_outside <= res.walks
