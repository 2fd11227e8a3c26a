"""The benchmark's workloads, built on the program's public entry points.

Each workload is a *pass*: an ordered list of ops, where an op is one
call the experiments make (a native-grid cell, one checkpointed chain
stage, one MMU replay).  Ops run with the program's defaults (kernel
engine ``fast``, MMU engine ``vector``) and return the simulated output
the digest covers.  The seed reaches ``make_workload(seed=...)`` and
through it ``Workload.trace``.

- ``native_grid``: the 15 ``run_cell_native`` cells of the
  {thp, ingens, ca} x suite grid at ``quick`` scale, default
  ``RunOptions`` (the cells fig 7, fig 11, table V and table VI share).
- ``virt_chain``: one aged CA+CA VM runs the suite as checkpointed
  stages at ``default`` scale, making the calls
  ``run_cell_virt_sim_stage`` makes (the chain fig 13, fig 14 and
  table VII share).
- ``tlb_replay``: set-up ages a THP+THP VM through the suite and keeps
  each final state's THP and forced-4K ``TranslationView`` (fig 13's
  THP+THP and 4K+4K states); each op generates a 1M-access trace and
  replays it through ``MmuSimulator`` with every scheme on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

from repro.experiments import common
from repro.hw.mmu_sim import MmuSimResult, MmuSimulator
from repro.hw.translation import TranslationView
from repro.sim.config import DEFAULT_SCALE, QUICK_SCALE, HardwareConfig, ScaleProfile
from repro.sim.results import RunResult
from repro.sim.runner import RunOptions, run_virtualized
from repro.workloads import make_workload

#: Trace length per chain stage (fig 13's ``TRACE_LEN``) and per replay.
CHAIN_TRACE_LEN = 200_000
REPLAY_TRACE_LEN = 1_000_000
#: Native-grid policies (fig 11 / table V / table VI order).
GRID_POLICIES = ("thp", "ingens", "ca")
#: The tests' stand-in scale: tiny footprints on a paper-sized machine,
#: so every suite workload fits (``TEST_SCALE`` machines run out).
SMOKE_SCALE = ScaleProfile(
    name="smoke", bytes_per_paper_gb=1 << 20, machine_paper_gb=(256, 256)
)


@dataclass
class Op:
    """One timed call; ``run`` returns the simulated output."""

    name: str
    run: Callable[[], object]


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_sim(sim: MmuSimResult) -> None:
    """Accounting identities every MMU replay must satisfy."""
    walks = sim.walks
    ok = (
        sim.l1_hits + sim.l2_hits + walks == sim.accesses
        and sim.spot_correct + sim.spot_mispredict + sim.spot_no_prediction == walks
        and sim.utopia_rest + sim.utopia_flex == walks
        and max(sim.rmm_uncovered, sim.ds_outside, sim.ctlb_uncovered,
                sim.seg_outside) <= walks
    )
    if not ok:
        raise AssertionError(f"inconsistent MMU counters: {sim}")


def _check_run(result: RunResult) -> None:
    """Accounting identities every native run must satisfy."""
    if result.process is not None or result.faults is None:
        raise AssertionError("native cell returned a live process or no faults")
    if result.touched_pages < result.footprint_pages:
        raise AssertionError(
            f"{result.workload}: touched {result.touched_pages} of "
            f"{result.footprint_pages} footprint pages"
        )


class NativeGrid:
    """15 native cells, each on a fresh aged machine."""

    name = "native_grid"
    setup_repeats = 3

    def __init__(self, seed: int, scale=QUICK_SCALE):
        self.seed, self.scale = seed, scale

    def setup(self) -> str:
        """Nothing to build ahead: every cell boots its own machine."""
        return ""

    def ops(self) -> list[Op]:
        return [
            Op(f"{policy}/{wl}", partial(
                common.run_cell_native,
                workload=wl, policy=policy, scale=self.scale, seed=self.seed,
            ))
            for policy in GRID_POLICIES
            for wl in common.SUITE
        ]

    @staticmethod
    def digest(result: RunResult) -> str:
        _check_run(result)
        return _sha(asdict(result))


class VirtChain:
    """One aging CA+CA VM through the suite as checkpointed stages."""

    name = "virt_chain"
    setup_repeats = 3

    def __init__(self, seed: int, scale=DEFAULT_SCALE,
                 trace_len: int = CHAIN_TRACE_LEN):
        self.seed, self.scale, self.trace_len = seed, scale, trace_len
        self.hw = HardwareConfig()

    def setup(self) -> str:
        """Nothing to build ahead: the first stage boots the VM."""
        return ""

    def ops(self) -> list[Op]:
        prev: list[common.ChainStage] = []
        return [Op(wl, partial(self.stage, wl, prev)) for wl in common.SUITE]

    def stage(self, wl_name: str, prev: list) -> common.ChainStage:
        """The calls ``run_cell_virt_sim_stage`` makes, with the seeded
        workload; appends the new stage to ``prev``."""
        vm = common.resume_vm(*prev) if prev else common.virtual_machine(
            "ca", "ca", self.scale
        )
        wl = make_workload(wl_name, self.scale, seed=self.seed)
        trace = wl.trace(self.trace_len)
        r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
        view = TranslationView.virtualized(vm, r.process, force_4k=False)
        sims = [MmuSimulator(view, self.hw).run(trace, r.vma_start_vpns, workload=wl)]
        vm.guest_exit_process(r.process)
        vm.guest_kernel.drop_caches()
        blob, digest = common.checkpoint_vm(vm, prev)
        stage = common.ChainStage(
            payload=sims,
            state=blob,
            state_digest=digest,
            base_digest=prev[-1].state_digest if prev else None,
        )
        prev.append(stage)
        return stage

    @staticmethod
    def digest(stage: common.ChainStage) -> str:
        (sim,) = stage.payload
        _check_sim(sim)
        return _sha([asdict(sim), stage.state_digest])


class TlbReplay:
    """MMU replays of ten aged THP+THP memory states."""

    name = "tlb_replay"
    setup_repeats = 2

    def __init__(self, seed: int, scale=DEFAULT_SCALE,
                 trace_len: int = REPLAY_TRACE_LEN):
        self.seed, self.scale, self.trace_len = seed, scale, trace_len
        self.hw = HardwareConfig()
        self.states: list[tuple[str, TranslationView, list[int], object]] = []

    def setup(self) -> str:
        """Age the VM through the suite, keeping every final state's
        THP and 4K views; returns a digest of the views built."""
        vm = common.virtual_machine("thp", "thp", self.scale)
        states = []
        for wl_name in common.SUITE:
            wl = make_workload(wl_name, self.scale, seed=self.seed)
            r = run_virtualized(vm, wl, RunOptions(sample_every=None, exit_after=False))
            for force, label in ((False, "THP+THP"), (True, "4K+4K")):
                view = TranslationView.virtualized(vm, r.process, force_4k=force)
                states.append((f"{wl_name}/{label}", view, r.vma_start_vpns, wl))
            vm.guest_exit_process(r.process)
            vm.guest_kernel.drop_caches()
        self.states = states
        return _sha([
            [name, v.starts.tolist(), v.ppns.tolist(), v.lengths.tolist(),
             v.huge_regions.tolist(), vpns]
            for name, v, vpns, _ in states
        ])

    def ops(self) -> list[Op]:
        return [Op(name, partial(self.replay, view, vpns, wl))
                for name, view, vpns, wl in self.states]

    def replay(self, view: TranslationView, vpns: list[int], wl) -> MmuSimResult:
        trace = wl.trace(self.trace_len)
        return MmuSimulator(view, self.hw).run(trace, vpns, workload=wl)

    @staticmethod
    def digest(sim: MmuSimResult) -> str:
        _check_sim(sim)
        return _sha(asdict(sim))


WORKLOADS = {cls.name: cls for cls in (NativeGrid, VirtChain, TlbReplay)}


def make(name: str, seed: int, test_scale: bool = False):
    """Instantiate a workload; ``test_scale`` shrinks it for the tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if not test_scale:
        return WORKLOADS[name](seed)
    if name == "native_grid":
        return NativeGrid(seed, scale=SMOKE_SCALE)
    return WORKLOADS[name](seed, scale=SMOKE_SCALE, trace_len=20_000)
