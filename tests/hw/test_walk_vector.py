"""End-to-end engine differential for the MmuSimulator walk path.

The per-machine scalar-vs-batched differentials (SpOT, vRMM, DS, the
walk simulator, cTLB, Utopia, segmentation, vHC) live in the scheme
conformance battery — ``tests/hw/test_conformance.py`` over the
:mod:`tests.hw.conformance` registry.  These tests cover the layer
above: :class:`MmuSimulator` wiring every scheme machine into both
engines with a bit-identical :class:`MmuSimResult` and end state,
across ``HardwareConfig`` geometries and with the mechanistic walk
simulator attached.
"""

from dataclasses import asdict

import pytest

from repro.hw.mmu_sim import MmuSimulator
from repro.hw.pwc import WalkSimulator
from repro.hw.translation import TranslationView
from repro.sim.config import HardwareConfig
from tests.hw.conformance import (
    ctlb_state,
    hier_state,
    rmm_state,
    seg_state,
    spot_state,
    utopia_state,
    walk_state,
)
from tests.hw.test_engine_differential import native_state, virt_state

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


def sim_states(sim: MmuSimulator):
    """Every scheme machine's observable state."""
    return (
        spot_state(sim.spot),
        rmm_state(sim.rmm),
        vars(sim.ds.stats).copy(),
        ctlb_state(sim.ctlb),
        utopia_state(sim.utopia),
        seg_state(sim.seg),
    )


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
    def test_scheme_switches_differential(self, native, hw):
        wl, r, trace = native
        view = TranslationView.native(r.process, force_4k=True)
        results = {}
        states = {}
        for engine in ("scalar", "vector"):
            sim = MmuSimulator(view, hw, engine=engine)
            results[engine] = asdict(sim.run(trace, r.vma_start_vpns, workload=wl))
            states[engine] = sim_states(sim)
        assert results["scalar"] == results["vector"]
        assert states["scalar"] == states["vector"]

    def test_new_scheme_counters_cover_all_walks(self, native):
        """Defaults-on schemes partition the walk stream."""
        wl, r, trace = native
        view = TranslationView.native(r.process, force_4k=True)
        sim = MmuSimulator(view, HardwareConfig(), engine="vector")
        res = sim.run(trace, r.vma_start_vpns, workload=wl)
        assert res.utopia_rest + res.utopia_flex == res.walks
        assert sim.ctlb.stats.total == res.walks
        assert sim.seg.stats.total == res.walks
        assert 0 <= res.ctlb_uncovered <= res.walks
        assert 0 <= res.seg_outside <= res.walks

    @pytest.mark.parametrize("virtualized", [False, True],
                             ids=["native_4k", "virt_4k"])
    def test_with_walk_simulator(self, request, virtualized):
        """Every access walks (forced 4K) through the mechanistic walk
        coster; on the CA+CA guest it also runs the nested TLB."""
        if virtualized:
            vm, wl, r, trace = request.getfixturevalue("virt")
            view = TranslationView.virtualized(vm, r.process, force_4k=True)
        else:
            wl, r, trace = request.getfixturevalue("native")
            view = TranslationView.native(r.process, force_4k=True)
        results = {}
        states = {}
        for engine in ("scalar", "vector"):
            ws = WalkSimulator(virtualized=virtualized)
            sim = MmuSimulator(view, HardwareConfig(), walk_sim=ws, engine=engine)
            results[engine] = asdict(sim.run(trace, r.vma_start_vpns, workload=wl))
            states[engine] = (
                walk_state(ws), sim_states(sim), hier_state(sim.tlb)
            )
        assert results["scalar"] == results["vector"]
        assert results["vector"]["measured_avg_walk_cycles"] is not None
        assert states["scalar"] == states["vector"]
