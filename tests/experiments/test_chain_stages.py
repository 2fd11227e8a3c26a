"""Aging-VM chains run as checkpointed stages; they must not drift.

Every aging-VM chain experiment runs as per-workload stages whose VM
state is framed (RPT1 delta checkpoints), digested and cached between
cells (:mod:`repro.experiments.common`).  These tests pin the contract:

- *fidelity* — every chain experiment's stage payloads serialize
  byte-identically to a monolithic run: one live VM that steps through
  the same workloads and is never checkpointed;
- *prefix deps* — every stage cell depends on its chain's whole prefix
  (delta checkpoints may point into any earlier stage's blob);
- *checkpoint stability* — re-running a stage reproduces the same
  state digest bit for bit (the cache key of every downstream stage
  depends on it transitively);
- *resume* — executing a chain prefix, then the full chain against the
  same cache, recomputes only the unfinished suffix;
- *size* — delta checkpoints along an aging chain are at least 2x
  smaller than a plain pickle of the VM;
- *picklability* — a shadow-paging VM survives the checkpoint
  round-trip with its pager hooks intact.

Two-workload chains at the smoke scale keep this fast while still
crossing a checkpoint boundary.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.experiments import common, ext_shadow, ext_vhc
from repro.experiments.serialize import to_jsonable
from repro.sim import transport
from repro.sim.cache import RunCache
from repro.sim.config import HardwareConfig, ScaleProfile
from repro.sim.jobs import Executor
from repro.virt.shadow import attach_shadow_paging
from tests.reference import PATHS, paths

SMOKE = ScaleProfile(
    name="smoke", bytes_per_paper_gb=1 << 20, machine_paper_gb=(128, 128)
)
WORKLOADS = ("svm", "pagerank")
#: For the live-VM comparison: after hashjoin, svm's state differs from
#: a fresh VM's for every chain kind, so a stage that ignored its
#: checkpoint would fail the comparison.
AGING_WORKLOADS = ("hashjoin", "svm")
TRACE_LEN = 5_000


def _blob(result) -> str:
    return json.dumps(to_jsonable(result), sort_keys=True)


def _plan(name: str, scale=SMOKE, workloads=WORKLOADS):
    module = importlib.import_module(f"repro.experiments.{name}")
    return module.plan(scale=scale, workloads=workloads, trace_len=TRACE_LEN)


def _chains(name: str, scale=SMOKE, workloads=WORKLOADS) -> list[list]:
    """The stage-cell chains one experiment's plan declares."""
    cells = _plan(name, scale, workloads).cells
    n = len(workloads)
    if name == "fig13":  # native cells, then the THP+THP and CA+CA chains
        return [cells[n:2 * n], cells[2 * n:3 * n]]
    return [cells]


#: Every plan that declares aging-VM chains.
CHAIN_EXPERIMENTS = ("fig13", "fig14", "table7", "ext_shadow", "ext_vhc")


def _live_steps(kind: str):
    """A never-checkpointed VM of one chain kind, as a per-workload step
    function returning what that chain's stage payload holds."""
    hw = HardwareConfig()
    if kind == "shadow":
        vm = common.virtual_machine("ca", "ca", SMOKE)
        pager = attach_shadow_paging(vm)
        return lambda name: ext_shadow._shadow_step(
            vm, pager, name, SMOKE, hw, TRACE_LEN
        )
    if kind == "vhc":
        vm = common.virtual_machine("ca", "ca", SMOKE)
        return lambda name: ext_vhc._vhc_step(vm, name, SMOKE, hw, TRACE_LEN)
    policy, force_4k = {"thp": ("thp", (False, True)), "ca": ("ca", (False,))}[kind]
    vm = common.virtual_machine(policy, policy, SMOKE)
    return lambda name: common.virt_sim_step(
        vm, name, SMOKE, hw, TRACE_LEN, force_4k
    )


#: experiment -> the kind of each chain its plan declares, in order.
CHAIN_KINDS = {
    "fig13": ("thp", "ca"),  # THP+THP with force_4k=(False, True), CA+CA
    "fig14": ("ca",),
    "table7": ("ca",),
    "ext_shadow": ("shadow",),
    "ext_vhc": ("vhc",),
}


class TestStagedMatchesMonolithic:
    """The monolithic reference is one live VM stepping through the
    chain's workloads in a single pass, never checkpointed."""

    @pytest.mark.parametrize("name", CHAIN_EXPERIMENTS)
    def test_byte_identical(self, name):
        chains = _chains(name, workloads=AGING_WORKLOADS)
        assert len(chains) == len(CHAIN_KINDS[name])
        for chain, kind in zip(chains, CHAIN_KINDS[name]):
            stages = Executor().run(chain)
            step = _live_steps(kind)
            live = [step(workload) for workload in AGING_WORKLOADS]
            assert _blob(common.stage_payloads(stages)) == _blob(live), kind


class TestStageDeps:
    @pytest.mark.parametrize("name", CHAIN_EXPERIMENTS)
    def test_each_stage_depends_on_its_whole_prefix(self, name):
        # The full suite: with five stages, "whole prefix" and "previous
        # stage only" disagree from stage 2 on.
        chains = _chains(name, common.QUICK_SCALE, common.SUITE)
        assert len(chains) == (2 if name == "fig13" else 1)
        for chain in chains:
            assert len(chain) == len(common.SUITE)
            for i, stage in enumerate(chain):
                assert stage.deps == tuple(chain[:i]), (name, i)


class TestCheckpoints:
    def test_state_digest_is_reproducible(self):
        plan = _plan("fig14")
        first = Executor().run(plan.cells)
        again = Executor().run(plan.cells)
        assert [s.state_digest for s in first] == [
            s.state_digest for s in again
        ]
        assert all(s.state == t.state for s, t in zip(first, again))

    @pytest.mark.parametrize("host,guest", [("ca", "ca"), ("thp", "thp")])
    def test_resumed_vm_checkpoints_to_the_same_digest(self, host, guest):
        """Loading an aged VM's checkpoint and checkpointing it again
        reproduces the logical digest: unpickling restores every key
        the way the next pickle expects to find it."""
        from repro.sim.runner import RunOptions, run_virtualized

        vm = common.virtual_machine(host, guest, SMOKE)
        r = run_virtualized(
            vm, common.workload("svm", SMOKE),
            RunOptions(sample_every=None, exit_after=False),
        )
        vm.guest_exit_process(r.process)
        blob, digest = common.checkpoint_vm(vm)
        assert common.checkpoint_vm(transport.loads(blob))[1] == digest

    def test_checkpoint_round_trips_a_shadow_vm(self):
        vm = common.virtual_machine("ca", "ca", SMOKE)
        pager = attach_shadow_paging(vm)
        blob, digest = common.checkpoint_vm(vm)
        assert transport.is_framed(blob)
        assert digest == common.checkpoint_vm(vm)[1]
        revived = transport.loads(blob)
        # The pager rode along, hooks and all.
        assert revived.shadow_pager is not None
        assert (revived.shadow_pager.stats.splintered_leaves
                == pager.stats.splintered_leaves)

    def test_delta_checkpoint_digest_matches_full(self):
        """A stage written as a delta carries the same logical digest —
        and resumes to the same VM — as the full framing of the same
        state, on both kernel paths."""
        for path in PATHS:
            with paths(path):
                vm = common.virtual_machine("ca", "ca", SMOKE)
                blob0, digest0 = common.checkpoint_vm(vm)
                stage0 = common.ChainStage(
                    payload=None, state=blob0, state_digest=digest0
                )
                # Age the VM one workload past the checkpoint.
                from repro.sim.runner import RunOptions, run_virtualized
                from repro.workloads import make_workload

                r = run_virtualized(
                    vm, make_workload("svm", SMOKE),
                    RunOptions(sample_every=None, exit_after=False),
                )
                vm.guest_exit_process(r.process)
                vm.guest_kernel.drop_caches()
                delta_blob, delta_digest = common.checkpoint_vm(vm, (stage0,))
                full_blob, full_digest = common.checkpoint_vm(vm)
                assert delta_digest == full_digest, path
                assert len(delta_blob) <= len(full_blob), path
                # Both resume to the same logical state.
                stage1 = common.ChainStage(
                    payload=None, state=delta_blob, state_digest=delta_digest,
                    base_digest=digest0,
                )
                resumed_delta = common.resume_vm(stage0, stage1)
                resumed_full = transport.loads(full_blob)
                assert (common.checkpoint_vm(resumed_delta)[1]
                        == common.checkpoint_vm(resumed_full)[1]), path

    def test_delta_checkpoints_are_at_least_2x_smaller_than_pickle(self):
        """Along a boot -> svm -> pagerank aging chain, every delta
        checkpoint is at least 2x smaller than pickling the whole VM."""
        import pickle

        from repro.sim.runner import RunOptions, run_virtualized
        from repro.workloads import make_workload

        vm = common.virtual_machine("ca", "ca", SMOKE)
        blob, digest = common.checkpoint_vm(vm)
        prev = [common.ChainStage(payload=None, state=blob,
                                  state_digest=digest)]
        for name in WORKLOADS:
            r = run_virtualized(
                vm, make_workload(name, SMOKE),
                RunOptions(sample_every=None, exit_after=False),
            )
            vm.guest_exit_process(r.process)
            vm.guest_kernel.drop_caches()
            blob, digest = common.checkpoint_vm(vm, prev)
            raw = len(pickle.dumps(vm, protocol=pickle.HIGHEST_PROTOCOL))
            assert 2 * len(blob) <= raw, (name, len(blob), raw)
            prev.append(common.ChainStage(
                payload=None, state=blob, state_digest=digest,
                base_digest=prev[-1].state_digest,
            ))

    def test_stage_payloads_unwrap_in_order(self):
        stages = [
            common.ChainStage(payload=i, state=b"", state_digest="")
            for i in range(3)
        ]
        assert common.stage_payloads(stages) == [0, 1, 2]


class TestResume:
    def test_killed_chain_recomputes_only_the_suffix(self, tmp_path):
        plan = _plan("ext_vhc")
        assert len(plan.cells) == len(WORKLOADS)
        # The "crash": only the first stage completed before the kill.
        interrupted = Executor(cache=RunCache(tmp_path))
        interrupted.run(plan.cells[:1])
        assert interrupted.stats.computed == 1
        # The rerun resumes from its checkpoint.
        resumed = Executor(cache=RunCache(tmp_path))
        result = plan.assemble(resumed.run(plan.cells))
        assert resumed.stats.cache_hits == 1
        assert resumed.stats.computed == len(WORKLOADS) - 1
        # And the resumed result is an uninterrupted run's, bit for bit.
        assert _blob(result) == _blob(_plan("ext_vhc").run(Executor()))

    def test_fig13_fig14_table7_share_the_ca_chain(self, tmp_path):
        # The three CA+CA consumers build identical stage cells, so a
        # suite run computes that chain once.
        cache = RunCache(tmp_path)
        Executor(cache=cache).run(_plan("fig14").cells)
        for name in ("fig13", "table7"):
            ex = Executor(cache=RunCache(tmp_path))
            plan = _plan(name)
            plan.assemble(ex.run(plan.cells))
            # Every CA+CA stage is a hit; only other cells compute.
            assert ex.stats.cache_hits >= len(WORKLOADS)
