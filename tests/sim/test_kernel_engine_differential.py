"""Kernel batched paths vs their per-page references.

The batched fault/fork/promotion paths must be *observably identical*
to the per-page references in ``tests/reference.py``: same fault counts
and latencies, same mapping runs, same policy decisions, same free
memory.  The benches time only the batched paths, so they must do the
references' work exactly.  Policies without an ``on_fault_batch`` hook
(eager, ranger, ideal) cover the span path's per-leaf fallback.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.sim.config import PAPER_SCALE, TEST_SCALE, SystemConfig
from repro.sim.machine import build_machine
from repro.units import HUGE_PAGES
from repro.vm.flags import DEFAULT_ANON
from repro.workloads import make_workload
from tests.reference import PATHS, paths, resident_pages

POLICIES = ["thp", "ingens", "ca", "eager", "ranger", "ideal"]


def run_alloc_phase(policy: str):
    config = SystemConfig(node_pages=(32 * 1024, 32 * 1024), churn_ops=400)
    machine = build_machine(policy, config)
    kernel = machine.kernel
    wl = make_workload("svm", TEST_SCALE)
    process = kernel.create_process(wl.name)
    vmas = [
        kernel.mmap(process, plan.n_pages, flags=DEFAULT_ANON, name=plan.name)
        for plan in wl.vma_plans
    ]
    for step in wl.alloc_steps():
        if step.kind != "anon":
            continue
        kernel.touch_range(
            process, vmas[step.index].start_vpn + step.start_page, step.n_pages
        )
    return machine, kernel, process


def digest(machine, kernel, process) -> dict:
    return {
        "major_faults": kernel.major_faults,
        "minor_faults": kernel.minor_faults,
        "tlb_shootdowns": kernel.tlb_shootdowns,
        "free_pages": machine.mem.free_pages,
        "latencies": [round(v, 6) for v in kernel.fault_latencies_us()],
        "runs": process.space.runs.sizes_desc(),
        "resident": process.resident_pages,
        "policy_stats": dict(sorted(vars(machine.policy.stats).items())),
    }


@pytest.mark.parametrize("policy", POLICIES)
def test_alloc_phase_identical(policy):
    digests = {}
    for path in PATHS:
        with paths(path):
            digests[path] = digest(*run_alloc_phase(policy))
    assert digests["scalar"] == digests["fast"]


def test_fork_identical():
    results = {}
    for path in PATHS:
        with paths(path):
            machine, kernel, parent = run_alloc_phase("ca")
            child = kernel.fork(parent)
            first_vma = next(iter(child.space.iter_vmas()))
            kernel.touch_range(child, first_vma.start_vpn, 64)
        results[path] = {
            "parent_runs": parent.space.runs.sizes_desc(),
            "child_runs": child.space.runs.sizes_desc(),
            "minor_faults": kernel.minor_faults,
            "free_pages": machine.mem.free_pages,
        }
    assert results["scalar"] == results["fast"]


# -- property sweep: arbitrary touch patterns --------------------------------


def run_touch_pattern(policy: str, path: str, pattern):
    """Drive an arbitrary (start, length) touch sequence on one VMA."""
    config = SystemConfig(node_pages=(8 * 1024, 8 * 1024), churn_ops=100)
    with paths(path):
        machine = build_machine(policy, config)
        kernel = machine.kernel
        process = kernel.create_process("prop")
        vma = kernel.mmap(process, 4096, flags=DEFAULT_ANON, name="heap")
        for start, n_pages in pattern:
            kernel.touch_range(process, vma.start_vpn + start, n_pages)
    return machine, kernel, process


touch_patterns = st.lists(
    st.tuples(st.integers(0, 4095), st.integers(1, 600)).map(
        lambda t: (t[0], min(t[1], 4096 - t[0]))
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(POLICIES), pattern=touch_patterns)
def test_engines_identical_under_random_touches(policy, pattern):
    digests = [
        digest(*run_touch_pattern(policy, path, pattern)) for path in PATHS
    ]
    assert digests[0] == digests[1]


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(POLICIES), pattern=touch_patterns)
def test_covered_pages_count_mapped_vpns(policy, pattern):
    """Ingens's promotion scan counts a region's resident pages from the
    mapping runs; that count must equal a per-vpn page-table check."""
    _, _, process = run_touch_pattern(policy, "fast", pattern)
    space = process.space
    (vma,) = space.iter_vmas()
    for region in range(vma.start_vpn, vma.end_vpn, HUGE_PAGES):
        assert (space.runs.covered_pages(region, region + HUGE_PAGES)
                == resident_pages(space, region))


# -- paper-scale OOM edge ----------------------------------------------------


def drive_to_oom():
    """Run a paper-profile workload into a machine far too small for it."""
    tiny = replace(PAPER_SCALE, machine_paper_gb=(1, 1))
    config = SystemConfig.from_scale(tiny, churn_ops=0)
    machine = build_machine("thp", config, aged=False)
    kernel = machine.kernel
    wl = make_workload("svm", PAPER_SCALE)
    process = kernel.create_process(wl.name)
    vmas = [
        kernel.mmap(process, plan.n_pages, flags=DEFAULT_ANON, name=plan.name)
        for plan in wl.vma_plans
    ]
    steps = 0
    with pytest.raises(OutOfMemoryError):
        for step in wl.alloc_steps():
            if step.kind != "anon":
                continue
            kernel.touch_range(
                process, vmas[step.index].start_vpn + step.start_page, step.n_pages
            )
            steps += 1
    return {
        "steps": steps,
        "major_faults": kernel.major_faults,
        "free_pages": machine.mem.free_pages,
        "resident": process.resident_pages,
    }


def test_paper_scale_oom_edge_identical():
    # A paper-footprint workload against a 2 paper-GB machine must die
    # with a clean OutOfMemoryError at the very same fault on both
    # paths — the batched paths must not overrun or underrun the buddy.
    results = {}
    for path in PATHS:
        with paths(path):
            results[path] = drive_to_oom()
    assert results["scalar"] == results["fast"]
    assert results["scalar"]["steps"] > 0
