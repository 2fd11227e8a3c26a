"""Guest span faulting must nested-back exactly like the per-leaf paths.

With no fault hooks installed, ``guest_touch_range`` backs whole granted
guest segments through ``fault_span``'s ``on_span`` callback.  A fault
hook forces the per-leaf ``on_fault`` callback instead, and the
reference paths (``tests/reference.py``) run the per-leaf loop.  All
three must leave the same VM behind: the same nested faults, the same
mapping runs in both dimensions and the same free memory on both sides.
All three must also checkpoint to the same logical digest, except under
an Ingens guest: its pending-promotion table is keyed by ``id()`` of
each address space, a memory address, so two VMs built in one process
never pickle identically.
"""

from __future__ import annotations

import pytest

from repro.experiments import common
from repro.sim import transport
from repro.sim.config import ScaleProfile
from repro.sim.runner import RunOptions, run_virtualized
from tests.reference import paths

SMOKE = ScaleProfile(
    name="smoke", bytes_per_paper_gb=1 << 20, machine_paper_gb=(128, 128)
)
WORKLOADS = ("svm", "pagerank")
#: ``(guest, host)`` policy pairs.  Ingens faults 4K pages only, so on
#: Ingens+Ingens a page missed by a segment's backing stays unbacked
#: (a huge host leaf would cover it).
PAIRS = [("ca", "ca"), ("thp", "thp"), ("ingens", "ca"), ("ingens", "ingens")]


def _noop_hook(process, result) -> None:
    pass


def run_vm(guest: str, host: str, path: str, hooked: bool) -> dict:
    with paths(path):
        vm = common.virtual_machine(host, guest, SMOKE)
        if hooked:
            vm.fault_hooks.append(_noop_hook)
        guest_runs = []
        for name in WORKLOADS:
            result = run_virtualized(
                vm, common.workload(name, SMOKE),
                RunOptions(sample_every=None, exit_after=False),
            )
            guest_runs.append(result.process.space.runs.sizes_desc())
            vm.guest_exit_process(result.process)
            vm.guest_kernel.drop_caches()
    vm.fault_hooks.clear()
    return {
        "nested_faults": vm.nested_faults,
        "guest_runs": guest_runs,
        "host_runs": vm.qemu.space.runs.sizes_desc(),
        "guest_free": vm.guest_mem.free_pages,
        "host_free": vm.host.mem.free_pages,
        "digest": transport.blob_digest(transport.dumps(vm)),
    }


@pytest.mark.parametrize("guest,host", PAIRS)
def test_span_backing_matches_per_leaf_and_scalar(guest, host):
    span = run_vm(guest, host, "fast", hooked=False)
    leaf = run_vm(guest, host, "fast", hooked=True)
    scalar = run_vm(guest, host, "scalar", hooked=False)
    assert span["nested_faults"] > 0
    digests = {span.pop("digest"), leaf.pop("digest"), scalar.pop("digest")}
    if guest != "ingens":
        assert len(digests) == 1
    assert span == leaf == scalar
