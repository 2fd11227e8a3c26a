"""The bench harness: ``python -m repro bench``.

One command with two forms, both writing one report schema:

- **suite** (``--scale quick|default|big``, :func:`run_suite_bench`):
  the experiment suite run three times — serially, through the DAG
  fan-out against a cold cache, and again warm — with the serialized
  results asserted byte-identical across all three passes.  Their
  ``results_sha256`` is the oracle every simplification is checked
  against.
- **paper** (``--scale paper``, :func:`run_paper_bench`): one fault
  cell at face-value footprints — Ingens on ``bt``, the anonymous
  allocation phase through ``Kernel.touch_range``'s batched span fault
  path — gated by a wall-clock budget.

Every report carries ``bench``, ``scale``, ``wall_seconds``, an
``env`` block, ``passes`` (name -> ``{seconds, stats}``), an identity
digest and the inputs of its gates.  That the batched paths agree with
their per-page and per-access references is tier-1's job (the
differential tests over ``tests/reference.py`` and the
scheme-conformance battery), not the bench's.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict
from pathlib import Path

from repro.sim.config import PAPER_SCALE, ScaleProfile, SystemConfig
from repro.sim.machine import build_machine
from repro.vm.flags import DEFAULT_ANON

#: Wall-clock budget (seconds) the paper fault cell must fit in.
PAPER_FAULT_BUDGET_S = 600.0

#: The paper cell: the largest footprint under the promotion daemon.
PAPER_POLICY = "ingens"
PAPER_WORKLOAD = "bt"


def _envelope(bench: str, scale: str, jobs: int, started: float,
              passes: dict[str, tuple[float, dict]], **fields) -> dict:
    """The fields every bench report shares, around ``fields``."""
    return {
        "bench": bench,
        "scale": scale,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
            "jobs": jobs,
        },
        "passes": {
            name: {"seconds": round(seconds, 3), "stats": stats}
            for name, (seconds, stats) in passes.items()
        },
        **fields,
        "wall_seconds": round(time.time() - started, 1),
    }


def write_report(report: dict, out: str | Path) -> Path:
    """Write the bench report as JSON; returns the path."""
    path = Path(out)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def _fault_phase_once(scale: ScaleProfile,
                      max_steps: int | None = None) -> tuple[float, dict, dict]:
    """Replay the paper cell's anonymous allocation phase; time the faults.

    Returns ``(seconds, stats, state)``: ``state`` is the observable
    end state the identity digest covers.  ``max_steps`` caps the
    replay (CI smoke); the cap is part of ``stats`` so capped runs are
    never mistaken for full ones.
    """
    from repro.workloads import make_workload

    machine = build_machine(PAPER_POLICY, SystemConfig.from_scale(scale))
    kernel = machine.kernel
    wl = make_workload(PAPER_WORKLOAD, scale)
    process = kernel.create_process(wl.name)
    vmas = [
        kernel.mmap(process, plan.n_pages, flags=DEFAULT_ANON, name=plan.name)
        for plan in wl.vma_plans
    ]
    steps = [s for s in wl.alloc_steps() if s.kind == "anon"]
    total_steps = len(steps)
    if max_steps is not None:
        steps = steps[:max_steps]
    started = time.perf_counter()
    for step in steps:
        kernel.touch_range(
            process, vmas[step.index].start_vpn + step.start_page, step.n_pages
        )
    seconds = time.perf_counter() - started
    faults = kernel.major_faults
    stats = {
        "faults": faults,
        "faults_per_sec": round(faults / seconds, 1) if seconds > 0 else 0.0,
        "steps": len(steps),
        "total_steps": total_steps,
        "pages": sum(s.n_pages for s in steps),
    }
    state = {
        "minor_faults": kernel.minor_faults,
        "tlb_shootdowns": kernel.tlb_shootdowns,
        "free_pages": machine.mem.free_pages,
        "latency_sum_us": round(kernel.fault_latency_sum_us(), 3),
        "run_sizes": process.space.runs.sizes_desc(),
        "policy_stats": dict(sorted(vars(machine.policy.stats).items())),
    }
    kernel.exit_process(process)
    return seconds, stats, state


def run_paper_bench(scale: ScaleProfile = PAPER_SCALE,
                    fault_steps: int | None = None) -> dict:
    """The paper fault cell; ``in_budget`` is its gate."""
    started = time.time()
    seconds, stats, state = _fault_phase_once(scale, max_steps=fault_steps)
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()
    return _envelope(
        "paper", scale.name, 1, started, {"fault": (seconds, stats)},
        policy=PAPER_POLICY,
        workload=PAPER_WORKLOAD,
        state_sha256=digest,
        budget_seconds=PAPER_FAULT_BUDGET_S,
        in_budget=seconds <= PAPER_FAULT_BUDGET_S,
    )


def _suite_pass(scale: ScaleProfile, names: list[str], jobs: int,
                cache) -> tuple[bytes, float, dict]:
    """One full-suite pass; returns (canonical JSON, seconds, stats)."""
    from repro.cli import run_suite_grid
    from repro.sim.jobs import Executor

    executor = Executor(jobs=jobs, cache=cache)
    try:
        blob, seconds = run_suite_grid(scale, names, executor)
    finally:
        executor.close()
    return blob, seconds, asdict(executor.stats)


def run_suite_bench(
    scale_name: str = "quick",
    jobs: int | None = None,
    experiments: tuple[str, ...] | None = None,
    cache_root: str | Path | None = None,
) -> dict:
    """Serial vs parallel-cold vs parallel-warm.

    The same experiment suite runs three times and the three serialized
    result sets are compared byte for byte:

    - ``serial`` — one process, no cache (what ``repro suite --jobs 1
      --no-cache`` runs): the baseline the speedups are against.
    - ``parallel_cold`` — the ``jobs``-wide DAG fan-out against an
      empty cache.
    - ``parallel_warm`` — the same cache again, now populated.

    ``cache_root`` (a scratch directory; **cleared** before the cold
    pass so cold means cold) defaults to a private temp dir.
    """
    import shutil
    import tempfile

    from repro.cli import EXPERIMENTS, SCALES
    from repro.sim.cache import RunCache

    scale = SCALES[scale_name]
    names = list(experiments) if experiments else list(EXPERIMENTS)
    cpus = os.cpu_count() or 1
    jobs = jobs or cpus
    started = time.time()
    own_tmp = cache_root is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-suite-bench-"))
        if own_tmp else Path(cache_root)
    )
    blobs: dict[str, bytes] = {}
    passes: dict[str, tuple[float, dict]] = {}
    try:
        cache = RunCache(root)
        cache.clear()
        for name, pass_jobs, pass_cache in (("serial", 1, None),
                                            ("parallel_cold", jobs, cache),
                                            ("parallel_warm", jobs, cache)):
            blob, seconds, stats = _suite_pass(scale, names, pass_jobs,
                                               pass_cache)
            blobs[name] = blob
            passes[name] = (seconds, stats)
    finally:
        if own_tmp:
            shutil.rmtree(root, ignore_errors=True)

    serial_s = passes["serial"][0]

    def speedup(name: str) -> float:
        return round(serial_s / max(passes[name][0], 1e-9), 2)

    return _envelope(
        "suite", scale_name, jobs, started, passes,
        experiments=names,
        results_identical=len(set(blobs.values())) == 1,
        results_sha256=hashlib.sha256(blobs["serial"]).hexdigest(),
        cold_speedup=speedup("parallel_cold"),
        warm_speedup=speedup("parallel_warm"),
        # Parallel-vs-serial needs two workers on two cores to mean
        # anything; the cold gate reads this instead of failing.
        parallel_gate_meaningful=min(jobs, cpus) >= 2,
    )
