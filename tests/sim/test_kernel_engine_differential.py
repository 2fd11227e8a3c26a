"""Kernel ``fast`` vs ``scalar`` engine differential tests.

The batched fault/promotion paths must be *observably identical* to the
per-page reference: same fault counts and latencies, same mapping runs,
same policy decisions, same free memory.  Anything less and the bench's
speedup numbers compare different systems.  Policies without an
``on_fault_batch`` hook (eager, ranger, ideal) cover the span path's
per-leaf fallback.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, OutOfMemoryError
from repro.sim.config import PAPER_SCALE, TEST_SCALE, SystemConfig
from repro.sim.kernel import Kernel
from repro.sim.machine import build_machine
from repro.vm.flags import DEFAULT_ANON
from repro.workloads import make_workload

ENGINES = ("scalar", "fast")
POLICIES = ["thp", "ingens", "ca", "eager", "ranger", "ideal"]


def run_alloc_phase(policy: str, engine: str):
    config = SystemConfig(
        node_pages=(32 * 1024, 32 * 1024), churn_ops=400, engine=engine
    )
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
    digests = {
        engine: digest(*run_alloc_phase(policy, engine)) for engine in ENGINES
    }
    assert digests["scalar"] == digests["fast"]


def test_fork_identical():
    results = {}
    for engine in ENGINES:
        machine, kernel, parent = run_alloc_phase("ca", engine)
        child = kernel.fork(parent)
        first_vma = next(iter(child.space.iter_vmas()))
        kernel.touch_range(child, first_vma.start_vpn, 64)
        results[engine] = {
            "parent_runs": parent.space.runs.sizes_desc(),
            "child_runs": child.space.runs.sizes_desc(),
            "minor_faults": kernel.minor_faults,
            "free_pages": machine.mem.free_pages,
        }
    assert results["scalar"] == results["fast"]


# -- property sweep: arbitrary touch patterns --------------------------------


def run_touch_pattern(policy: str, engine: str, pattern):
    """Drive an arbitrary (start, length) touch sequence on one VMA."""
    config = SystemConfig(
        node_pages=(8 * 1024, 8 * 1024), churn_ops=100, engine=engine
    )
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
        digest(*run_touch_pattern(policy, engine, pattern)) for engine in ENGINES
    ]
    assert digests[0] == digests[1]


# -- paper-scale OOM edge ----------------------------------------------------


def drive_to_oom(engine: str):
    """Run a paper-profile workload into a machine far too small for it."""
    tiny = replace(PAPER_SCALE, machine_paper_gb=(1, 1))
    config = SystemConfig.from_scale(tiny, churn_ops=0, engine=engine)
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
    # with a clean OutOfMemoryError at the very same fault in every
    # engine — the batched paths must not overrun or underrun the buddy.
    results = {engine: drive_to_oom(engine) for engine in ENGINES}
    assert results["scalar"] == results["fast"]
    assert results["scalar"]["steps"] > 0


def test_retired_columnar_engine_rejected():
    with pytest.raises(ConfigError):
        SystemConfig(engine="columnar")
    machine = build_machine("thp", SystemConfig(node_pages=(1024,), churn_ops=0))
    with pytest.raises(ConfigError):
        Kernel(machine.mem, machine.policy, engine="columnar")
