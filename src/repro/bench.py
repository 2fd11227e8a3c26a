"""Tracked engine benchmarks: ``python -m repro bench``.

Two phases, each an A/B of a reference (scalar) engine against the
batched engine that replaced it on the hot path:

1. *fault path* — the Fig. 7 allocation phase (the workload's anonymous
   ``alloc_steps`` driven through ``Kernel.touch_range``) replayed on a
   fresh machine per (policy, engine) with identical seeds.  The
   ``scalar`` kernel engine routes the reference page-at-a-time paths
   (``touch_range_scalar``, per-page Ingens promotion); ``fast`` routes
   the batched ones.  File readahead steps are excluded: they take the
   same path under both engines and would only dilute the ratio.
2. *replay* — a steady-state access trace replayed through the
   :class:`~repro.hw.mmu_sim.MmuSimulator` with the ``scalar`` and
   ``vector`` TLB engines, on a native THP state and on a virtualized
   CA+CA state.
3. *walk path* — the same A/B on a *miss-heavy* virtualized state (a
   CA+CA guest with every TLB entry splintered to 4K), where nearly
   every access drains into the per-miss scheme machines (SpOT, vRMM,
   DS — and, in the second sub-state, the mechanistic PWC/nTLB walk
   coster).  This is the path the batched walk engines target; the
   engines must agree on every scheme counter *and* on a full end-state
   digest (table contents, LRU orders, confidence values).

All phases assert that the engines agree on every observable counter
before reporting throughput, so the speedups are for identical work.
The JSON written to ``BENCH_engine.json`` is the perf-tracking artifact
CI archives per commit.

A third bench, ``python -m repro bench-suite`` (:func:`run_suite_bench`),
measures the experiment orchestrator itself across four modes: the
whole suite serially in one process with no cache, through the
DAG-scheduled process fan-out against a cold two-tier cache, again
warm, and once more with a fresh local L1 against the now-warm shared
HTTP tier (every cell must arrive by digest over the wire) — with the
serialized results asserted byte-identical across all four modes —
writing ``BENCH_suite.json``.

A fourth, ``python -m repro bench-serve``
(:func:`repro.serve.loadgen.run_serve_bench`), load-tests the serving
layer end to end — concurrent-client coalescing, warm-path latency
percentiles and throughput — writing ``BENCH_serve.json`` through the
same :func:`write_report` plumbing.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict
from pathlib import Path

from repro.hw.mmu_sim import MmuSimulator
from repro.hw.translation import TranslationView
from repro.metrics.profiling import Profiler
from repro.sim.config import (
    BIG_SCALE,
    DEFAULT_SCALE,
    PAPER_SCALE,
    QUICK_SCALE,
    TEST_SCALE,
    HardwareConfig,
    ScaleProfile,
    SystemConfig,
)
from repro.sim.machine import build_machine
from repro.sim.runner import RunOptions, run_native, run_virtualized
from repro.vm.flags import DEFAULT_ANON

#: CI-smoke profile: the unit-test page budget per paper GB, but on a
#: machine big enough to hold a THP-bloated workload plus its input
#: files (the plain test machine OOMs under svm).
BENCH_TEST_SCALE = ScaleProfile(
    name="bench-test", bytes_per_paper_gb=TEST_SCALE.bytes_per_paper_gb,
    machine_paper_gb=(48, 48),
)

#: Scale profiles the bench accepts (includes ``test`` for CI smoke).
BENCH_SCALES = {
    "test": BENCH_TEST_SCALE,
    "quick": QUICK_SCALE,
    "default": DEFAULT_SCALE,
    "big": BIG_SCALE,
    "paper": PAPER_SCALE,
}

#: Policies whose allocation phase the fault bench replays.  ``ingens``
#: exercises the promotion daemon (the dominant batched path); ``thp``
#: and ``ca`` exercise the huge-fault and placement paths.
FAULT_POLICIES = ("thp", "ingens", "ca")

#: Kernel engines the fault phase A/Bs, reference first.
FAULT_ENGINES = ("scalar", "fast", "columnar")

#: Wall-clock budget (seconds) the paper-tier fault phase must fit in.
PAPER_FAULT_BUDGET_S = 600.0

#: Steps of the paper-tier fault phase replayed on the reference
#: engines to project their full-run time (the full scalar run blows
#: the budget by design — that is the point of the tier).
PAPER_PROBE_STEPS = 400

#: Default trace length for the replay phase.
REPLAY_TRACE_LEN = 200_000

#: Each engine's replay is repeated this many times and the best run
#: kept (for both engines alike) — the shared CI boxes this runs on
#: have enough scheduler noise to swamp a single measurement.
REPLAY_REPEATS = 3


def _fault_phase_once(policy: str, engine: str, scale: ScaleProfile,
                      workload_name: str, max_steps: int | None = None) -> dict:
    """Replay one workload's anonymous allocation phase; time the faults.

    ``max_steps`` caps the replay (reference-engine probes at paper
    scale, CI smoke); the cap is part of the reported summary so capped
    runs are never mistaken for full ones.
    """
    from repro.workloads import make_workload

    cfg = SystemConfig.from_scale(scale, engine=engine)
    machine = build_machine(policy, cfg)
    kernel = machine.kernel
    wl = make_workload(workload_name, scale)
    process = kernel.create_process(wl.name)
    vmas = [
        kernel.mmap(process, plan.n_pages, flags=DEFAULT_ANON, name=plan.name)
        for plan in wl.vma_plans
    ]
    steps = [s for s in wl.alloc_steps() if s.kind == "anon"]
    total_steps = len(steps)
    if max_steps is not None:
        steps = steps[:max_steps]
    pages = sum(s.n_pages for s in steps)
    started = time.perf_counter()
    for step in steps:
        kernel.touch_range(
            process, vmas[step.index].start_vpn + step.start_page, step.n_pages
        )
    seconds = time.perf_counter() - started
    faults = kernel.major_faults
    summary = {
        "seconds": round(seconds, 4),
        "faults": faults,
        "faults_per_sec": round(faults / seconds, 1) if seconds > 0 else 0.0,
        "steps": len(steps),
        "total_steps": total_steps,
        "pages": pages,
        # Digest of observable state, compared across engines below.
        "state": {
            "minor_faults": kernel.minor_faults,
            "tlb_shootdowns": kernel.tlb_shootdowns,
            "free_pages": machine.mem.free_pages,
            "latency_sum_us": round(kernel.fault_latency_sum_us(), 3),
            "run_sizes": process.space.runs.sizes_desc(),
            "policy_stats": dict(sorted(vars(machine.policy.stats).items())),
        },
    }
    kernel.exit_process(process)
    return summary


def bench_fault_path(scale: ScaleProfile, workload_name: str = "svm",
                     fault_steps: int | None = None) -> dict:
    """A/B the kernel engines over the allocation phase per policy.

    All of :data:`FAULT_ENGINES` replay identical step sequences; state
    digests must agree across every pair before any speedup is
    reported.  The headline ``speedup`` is scalar/columnar (the tracked
    number); scalar/fast is kept as ``speedup_fast`` for continuity
    with earlier reports.
    """
    policies: dict[str, dict] = {}
    totals = dict.fromkeys(FAULT_ENGINES, 0.0)
    for policy in FAULT_POLICIES:
        runs = {
            engine: _fault_phase_once(
                policy, engine, scale, workload_name, max_steps=fault_steps
            )
            for engine in FAULT_ENGINES
        }
        ref = runs["scalar"]
        same = all(
            runs[e]["state"] == ref["state"] and runs[e]["faults"] == ref["faults"]
            for e in FAULT_ENGINES
        )
        for engine, run in runs.items():
            totals[engine] += run["seconds"]
            del run["state"]  # compared, not reported
        policies[policy] = {
            **{engine: runs[engine] for engine in runs},
            "speedup": round(
                runs["scalar"]["seconds"] / max(runs["columnar"]["seconds"], 1e-9), 2
            ),
            "speedup_fast": round(
                runs["scalar"]["seconds"] / max(runs["fast"]["seconds"], 1e-9), 2
            ),
            "engines_identical": same,
        }
    return {
        "workload": workload_name,
        "policies": policies,
        "scalar_seconds": round(totals["scalar"], 4),
        "fast_seconds": round(totals["fast"], 4),
        "columnar_seconds": round(totals["columnar"], 4),
        "fault_speedup": round(totals["scalar"] / max(totals["columnar"], 1e-9), 2),
        "fault_speedup_fast": round(totals["scalar"] / max(totals["fast"], 1e-9), 2),
        "engines_identical": all(
            p["engines_identical"] for p in policies.values()
        ),
    }


def bench_fault_path_paper(scale: ScaleProfile, workload_name: str = "bt",
                           policy: str = "ingens",
                           fault_steps: int | None = None,
                           budget_seconds: float = PAPER_FAULT_BUDGET_S) -> dict:
    """Paper-tier fault phase: full columnar run + reference projections.

    At face-value scale (tens of millions of base-page faults) the
    reference engines cannot finish inside ``budget_seconds``, so they
    replay only :data:`PAPER_PROBE_STEPS` steps and their full-run time
    is projected linearly from the probe's per-fault cost.  The
    columnar engine runs the whole phase (capped only by
    ``fault_steps`` in CI smoke) and is timed for real.
    """
    columnar = _fault_phase_once(
        policy, "columnar", scale, workload_name, max_steps=fault_steps
    )
    del columnar["state"]
    probe_steps = PAPER_PROBE_STEPS
    if fault_steps is not None:
        probe_steps = min(probe_steps, fault_steps)
    probes: dict[str, dict] = {}
    projected: dict[str, float] = {}
    for engine in ("scalar", "fast"):
        probe = _fault_phase_once(
            policy, engine, scale, workload_name, max_steps=probe_steps
        )
        del probe["state"]
        probes[engine] = probe
        projected[engine] = round(
            probe["seconds"] * columnar["faults"] / max(probe["faults"], 1), 1
        )
    return {
        "workload": workload_name,
        "policy": policy,
        "budget_seconds": budget_seconds,
        "columnar": columnar,
        "probes": probes,
        "scalar_projected_seconds": projected["scalar"],
        "fast_projected_seconds": projected["fast"],
        "columnar_in_budget": columnar["seconds"] <= budget_seconds,
        "scalar_in_budget": projected["scalar"] <= budget_seconds,
        "fault_speedup": round(
            projected["scalar"] / max(columnar["seconds"], 1e-9), 2
        ),
    }


def _replay_once(view: TranslationView, trace, vma_start_vpns, wl,
                 engine: str) -> tuple[dict, float]:
    """Best-of-N MMU simulation of ``trace``; returns (counters, seconds).

    Every repetition starts from a fresh simulator, so the counters are
    deterministic; a repetition that disagrees is a real engine bug and
    is surfaced immediately.
    """
    counters: dict | None = None
    best = float("inf")
    for _ in range(REPLAY_REPEATS):
        sim = MmuSimulator(view, HardwareConfig(), engine=engine)
        started = time.perf_counter()
        result = sim.run(trace, vma_start_vpns, workload=wl)
        best = min(best, time.perf_counter() - started)
        if counters is None:
            counters = asdict(result)
        elif counters != asdict(result):
            raise AssertionError(
                f"{engine} engine is nondeterministic across repeats"
            )
    return counters, best


def bench_replay(scale: ScaleProfile, workload_name: str = "svm",
                 trace_len: int = REPLAY_TRACE_LEN) -> dict:
    """A/B the MMU-simulator engines on native and virtualized states."""
    from repro.experiments import common
    from repro.workloads import make_workload

    wl = make_workload(workload_name, scale)
    trace = wl.trace(trace_len)
    options = RunOptions(sample_every=None, exit_after=False)
    profiler = Profiler()
    states: dict[str, dict] = {}

    native = common.native_machine("thp", scale)
    rn = run_native(native, wl, options)
    native_view = TranslationView.native(rn.process)

    vm = common.virtual_machine("ca", "ca", scale)
    rv = run_virtualized(vm, wl, options)
    virt_view = TranslationView.virtualized(vm, rv.process)

    for name, view, starts in (
        ("native_thp", native_view, rn.vma_start_vpns),
        ("virt_ca_ca", virt_view, rv.vma_start_vpns),
    ):
        counters: dict[str, dict] = {}
        seconds: dict[str, float] = {}
        for engine in ("scalar", "vector"):
            counters[engine], seconds[engine] = _replay_once(
                view, trace, starts, wl, engine
            )
            profiler.add(f"{name}/{engine}", seconds[engine], events=trace_len)
        states[name] = {
            "accesses": trace_len,
            "scalar_seconds": round(seconds["scalar"], 4),
            "vector_seconds": round(seconds["vector"], 4),
            "scalar_accesses_per_sec": round(profiler.rate(f"{name}/scalar"), 1),
            "vector_accesses_per_sec": round(profiler.rate(f"{name}/vector"), 1),
            "speedup": round(
                seconds["scalar"] / max(seconds["vector"], 1e-9), 2
            ),
            "engines_identical": counters["scalar"] == counters["vector"],
        }

    native.kernel.exit_process(rn.process)
    vm.guest_exit_process(rv.process)

    speedups = [s["speedup"] for s in states.values()]
    return {
        "workload": workload_name,
        "trace_len": trace_len,
        "states": states,
        "replay_speedup": round(min(speedups), 2),
        "engines_identical": all(s["engines_identical"] for s in states.values()),
    }


def _sim_state_digest(sim: MmuSimulator) -> dict:
    """Every observable end state of one simulator, for cross-engine
    comparison: TLB sets in LRU order + counters, the SpOT table with
    per-entry offset/confidence, resident vRMM ranges, DS counters,
    coalesced-TLB entries with coverage, Utopia promotion state,
    segmentation geometry/assignments and (when present) the walk
    simulator's caches and float cycle sum."""
    tlb = sim.tlb
    digest: dict = {
        "tlb": {
            name: ([list(s) for s in level._sets], level.hits, level.misses)
            for name, level in (
                ("l1_4k", tlb.l1_4k), ("l1_2m", tlb.l1_2m), ("l2", tlb.l2)
            )
        },
        "spot": None if sim.spot is None else (
            [
                [(pc, e.offset, e.confidence) for pc, e in s.items()]
                for s in sim.spot._sets
            ],
            vars(sim.spot.stats),
        ),
        "rmm": None if sim.rmm is None else (
            list(sim.rmm._ranges.items()), vars(sim.rmm.stats)
        ),
        "ds": None if sim.ds is None else vars(sim.ds.stats),
        "ctlb": None if sim.ctlb is None else (
            [list(s.items()) for s in sim.ctlb._sets],
            vars(sim.ctlb.stats),
        ),
        "utopia": None if sim.utopia is None else (
            list(sim.utopia._promoted.items()),
            list(sim.utopia._miss_counts.items()),
            sim.utopia.free_pages,
            vars(sim.utopia.stats),
        ),
        "seg": None if sim.seg is None else (
            [list(s) for s in sim.seg._segments],
            list(sim.seg._assigned.items()),
            list(sim.seg._rejected),
            vars(sim.seg.stats),
        ),
    }
    if sim.walk_sim is not None:
        ws = sim.walk_sim
        digest["walk_sim"] = (
            vars(ws.stats),
            [list(s) for s in ws.pwc._cache._sets],
            (ws.pwc._cache.hits, ws.pwc._cache.misses),
            None if ws.ntlb is None else (
                [list(s) for s in ws.ntlb._sets], ws.ntlb.hits, ws.ntlb.misses
            ),
        )
    return digest


def _walk_once(view, trace, vma_start_vpns, wl, engine, make_walk_sim):
    """Best-of-N walk-path replay; returns (counters, digest, seconds)."""
    counters: dict | None = None
    digest: dict | None = None
    best = float("inf")
    for _ in range(REPLAY_REPEATS):
        sim = MmuSimulator(
            view,
            HardwareConfig(),
            engine=engine,
            walk_sim=make_walk_sim() if make_walk_sim else None,
        )
        started = time.perf_counter()
        result = sim.run(trace, vma_start_vpns, workload=wl)
        best = min(best, time.perf_counter() - started)
        rep = (asdict(result), _sim_state_digest(sim))
        if counters is None:
            counters, digest = rep
        elif (counters, digest) != rep:
            raise AssertionError(
                f"{engine} engine is nondeterministic across repeats"
            )
    return counters, digest, best


def bench_walk_path(scale: ScaleProfile, workload_name: str = "svm",
                    trace_len: int = REPLAY_TRACE_LEN) -> dict:
    """A/B the MMU engines on the last-level-miss (walk) path.

    The state under test is a CA+CA guest viewed with ``force_4k``:
    every TLB entry splinters to 4K, TLB reach collapses, and nearly
    every access becomes a page walk — the regime where the per-miss
    scheme machines dominate.  Two sub-states: the scheme machines
    alone, and with the mechanistic PWC/nTLB walk coster attached.
    """
    from repro.experiments import common
    from repro.hw.pwc import WalkSimulator
    from repro.workloads import make_workload

    wl = make_workload(workload_name, scale)
    trace = wl.trace(trace_len)
    options = RunOptions(sample_every=None, exit_after=False)
    vm = common.virtual_machine("ca", "ca", scale)
    rv = run_virtualized(vm, wl, options)
    view = TranslationView.virtualized(vm, rv.process, force_4k=True)

    states: dict[str, dict] = {}
    for name, make_walk_sim in (
        ("virt_4k_schemes", None),
        ("virt_4k_mechwalk", lambda: WalkSimulator(virtualized=True)),
    ):
        counters: dict[str, dict] = {}
        digests: dict[str, dict] = {}
        seconds: dict[str, float] = {}
        for engine in ("scalar", "vector"):
            counters[engine], digests[engine], seconds[engine] = _walk_once(
                view, trace, rv.vma_start_vpns, wl, engine, make_walk_sim
            )
        miss_rate = counters["scalar"]["walks"] / max(
            1, counters["scalar"]["accesses"]
        )
        states[name] = {
            "accesses": trace_len,
            "walks": counters["scalar"]["walks"],
            "miss_rate": round(miss_rate, 4),
            "scalar_seconds": round(seconds["scalar"], 4),
            "vector_seconds": round(seconds["vector"], 4),
            "scalar_walks_per_sec": round(
                counters["scalar"]["walks"] / max(seconds["scalar"], 1e-9), 1
            ),
            "vector_walks_per_sec": round(
                counters["scalar"]["walks"] / max(seconds["vector"], 1e-9), 1
            ),
            "speedup": round(
                seconds["scalar"] / max(seconds["vector"], 1e-9), 2
            ),
            "engines_identical": (
                counters["scalar"] == counters["vector"]
                and digests["scalar"] == digests["vector"]
            ),
        }

    vm.guest_exit_process(rv.process)
    speedups = [s["speedup"] for s in states.values()]
    return {
        "workload": workload_name,
        "trace_len": trace_len,
        "states": states,
        "walk_speedup": round(min(speedups), 2),
        "engines_identical": all(
            s["engines_identical"] for s in states.values()
        ),
    }


def run_bench(scale_name: str = "default", workload_name: str = "svm",
              trace_len: int = REPLAY_TRACE_LEN,
              fault_steps: int | None = None) -> dict:
    """Run all phases; returns the JSON-ready report.

    The ``paper`` scale runs only the fault phase — in its
    full-columnar-plus-reference-projection form (the workload defaults
    to ``bt``, the paper's largest footprint) — because the replay/walk
    phases measure per-access MMU engines whose cost does not depend on
    the machine scale.
    """
    scale = BENCH_SCALES[scale_name]
    started = time.time()
    if scale_name == "paper":
        wl = "bt" if workload_name == "svm" else workload_name
        fault = bench_fault_path_paper(scale, wl, fault_steps=fault_steps)
        return {
            "bench": "engine",
            "scale": scale_name,
            "workload": wl,
            "python": platform.python_version(),
            "fault_path": fault,
            "fault_speedup": fault["fault_speedup"],
            "columnar_in_budget": fault["columnar_in_budget"],
            "scalar_in_budget": fault["scalar_in_budget"],
            "wall_seconds": round(time.time() - started, 1),
        }
    fault = bench_fault_path(scale, workload_name, fault_steps=fault_steps)
    replay = bench_replay(scale, workload_name, trace_len)
    walk = bench_walk_path(scale, workload_name, trace_len)
    return {
        "bench": "engine",
        "scale": scale_name,
        "workload": workload_name,
        "python": platform.python_version(),
        "fault_path": fault,
        "replay": replay,
        "walk_path": walk,
        # Headline numbers perf tracking plots per commit.
        "fault_speedup": fault["fault_speedup"],
        "replay_speedup": replay["replay_speedup"],
        "walk_speedup": walk["walk_speedup"],
        "engines_identical": (
            fault["engines_identical"]
            and replay["engines_identical"]
            and walk["engines_identical"]
        ),
        "wall_seconds": round(time.time() - started, 1),
    }


def write_report(report: dict, out: str | Path) -> Path:
    """Write the bench report as JSON; returns the path."""
    path = Path(out)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def _serialize_overhead(cells, results, salt: str) -> dict:
    """Pickle every unique cell result once; attribute bytes and time.

    This is the per-cell cost the parallel passes pay that the serial
    pass does not: each computed result crosses the worker-pool IPC
    boundary pickled and is pickled again into the run cache, so heavy
    result objects directly tax the cold fan-out (the historical
    sub-1x parallel-cold numbers in ``BENCH_suite.json`` were exactly
    this).  Measured outside the timed passes, on the serial pass's
    results.
    """
    import pickle

    from repro.sim import transport

    per_cell: dict[str, dict] = {}
    for c, result in zip(cells, results):
        key = c.key(salt)
        if key in per_cell:
            continue
        started = time.perf_counter()
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        seconds = time.perf_counter() - started
        per_cell[key] = {
            "cell": c.label(),
            "bytes": len(blob),
            # What the RPT1-framed path actually stores and ships for
            # the same result (the cache/tier/pool wire format).
            "framed_bytes": len(transport.dumps(result)),
            "seconds": round(seconds, 6),
        }
    ranked = sorted(per_cell.values(), key=lambda e: e["bytes"], reverse=True)
    return {
        "cells_measured": len(ranked),
        "total_bytes": sum(e["bytes"] for e in ranked),
        "total_framed_bytes": sum(e["framed_bytes"] for e in ranked),
        "total_seconds": round(sum(e["seconds"] for e in ranked), 6),
        "top_cells": ranked[:10],
    }


def _tier_stats(cache) -> dict | None:
    """The shared-tier traffic one pass generated (None when untiered)."""
    if cache is None or cache.tier is None:
        return None
    return {
        "hits": cache.tier_hits,
        "misses": cache.tier_misses,
        "stores": cache.tier_stores,
        "errors": cache.tier_errors,
    }


def _suite_pass(scale: ScaleProfile, names: list[str], jobs: int,
                cache, measure_serialize: bool = False
                ) -> tuple[str, float, dict, dict | None]:
    """One full-suite pass; returns (canonical JSON, seconds, stats,
    serialize overhead or None).

    Cells run through one flat :meth:`Executor.run` batch and assemble
    per plan — the exact :func:`repro.sim.jobs.run_plans` semantics,
    inlined so the flat cell/result pairing stays available for the
    (untimed) serialize-overhead measurement afterwards.
    """
    from repro.cli import suite_plans
    from repro.experiments.serialize import to_jsonable
    from repro.sim.jobs import Executor

    executor = Executor(jobs=jobs, cache=cache)
    try:
        started = time.perf_counter()
        entries = suite_plans(scale, names)
        plans = [plan for _, _, plan in entries]
        flat = [c for plan in plans for c in plan.cells]
        cell_results = executor.run(flat)
        results = []
        offset = 0
        for plan in plans:
            n = len(plan.cells)
            results.append(plan.assemble(cell_results[offset:offset + n]))
            offset += n
        seconds = time.perf_counter() - started
    finally:
        executor.close()
    payload = {
        key: to_jsonable(result)
        for (_, key, _), result in zip(entries, results)
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    serialize = (
        _serialize_overhead(flat, cell_results, executor._salt)
        if measure_serialize else None
    )
    stats = asdict(executor.stats)
    tier = _tier_stats(cache)
    if tier is not None:
        stats["tier"] = tier
    return blob, seconds, stats, serialize


def run_suite_bench(
    scale_name: str = "quick",
    jobs: int | None = None,
    experiments: tuple[str, ...] | None = None,
    cache_root: str | Path | None = None,
) -> dict:
    """Orchestrator A/B/C/D: serial vs parallel-cold vs warm vs two-tier.

    The same experiment suite runs four times and the four serialized
    result sets are asserted byte-identical before any timing is
    reported:

    - ``serial`` — one process, no cache (what ``repro suite --jobs 1
      --no-cache`` runs): the baseline the speedups are against.
    - ``parallel_cold`` — the ``jobs``-wide DAG fan-out, empty local
      L1, write-through to a live shared HTTP tier (a real in-process
      ``repro serve``).
    - ``parallel_warm`` — the same L1 again, now populated.
    - ``two_tier_cold`` — a **fresh, empty** local L1 against the warm
      shared tier: every cell must arrive by digest over the wire
      (the second-worker / resumed-suite scenario), so its ``tier``
      hit count is the federation proof CI checks.

    ``cache_root`` (a scratch directory; **cleared** before the cold
    pass so cold means cold) defaults to a private temp dir.
    """
    import hashlib
    import os
    import shutil
    import tempfile

    from repro.cli import EXPERIMENTS, SCALES
    from repro.serve.loadgen import ServerThread
    from repro.sim.cache import HttpCacheTier, RunCache

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
    try:
        for sub in ("shared", "l1", "l1-fresh"):
            RunCache(root / sub).clear()
        serial_blob, serial_s, serial_stats, serialize = _suite_pass(
            scale, names, 1, None, measure_serialize=True
        )
        with ServerThread(cache=RunCache(root / "shared")) as server:
            url = f"http://127.0.0.1:{server.port}"

            def l1(sub: str) -> RunCache:
                return RunCache(root / sub, tier=HttpCacheTier(url))

            cold_blob, cold_s, cold_stats, _ = _suite_pass(
                scale, names, jobs, l1("l1")
            )
            warm_blob, warm_s, warm_stats, _ = _suite_pass(
                scale, names, jobs, l1("l1")
            )
            tier_blob, tier_s, tier_stats, _ = _suite_pass(
                scale, names, jobs, l1("l1-fresh")
            )
    finally:
        if own_tmp:
            shutil.rmtree(root, ignore_errors=True)

    identical = serial_blob == cold_blob == warm_blob == tier_blob
    assert serialize is not None
    serialize["share_of_cold"] = round(
        serialize["total_seconds"] / max(cold_s, 1e-9), 4
    )
    return {
        "bench": "suite",
        "scale": scale_name,
        "experiments": names,
        "jobs": jobs,
        "cpus": cpus,
        "python": platform.python_version(),
        # The cold gate needs >= 2 cores to mean anything; CI reads
        # this note instead of failing single-core runners.
        "parallel_gate_meaningful": cpus >= 2,
        "modes": {
            "serial": {
                "seconds": round(serial_s, 3), "stats": serial_stats,
            },
            "parallel_cold": {
                "seconds": round(cold_s, 3), "stats": cold_stats,
                "speedup_vs_serial": round(serial_s / max(cold_s, 1e-9), 2),
            },
            "parallel_warm": {
                "seconds": round(warm_s, 3), "stats": warm_stats,
                "speedup_vs_serial": round(serial_s / max(warm_s, 1e-9), 2),
            },
            "two_tier_cold": {
                "seconds": round(tier_s, 3), "stats": tier_stats,
                "speedup_vs_serial": round(serial_s / max(tier_s, 1e-9), 2),
            },
        },
        # Per-cell result-pickling cost: what each parallel worker pays
        # returning results over IPC and what every cache put re-pays.
        "serialize": serialize,
        # Headline numbers perf tracking plots per commit.
        "cold_speedup": round(serial_s / max(cold_s, 1e-9), 2),
        "warm_speedup": round(serial_s / max(warm_s, 1e-9), 2),
        "two_tier_speedup": round(serial_s / max(tier_s, 1e-9), 2),
        # Federation proof: a fresh L1 pulled everything from the tier.
        "two_tier_computed": tier_stats["computed"],
        "two_tier_hits": tier_stats.get("tier", {}).get("hits", 0),
        "results_identical": identical,
        "results_sha256": hashlib.sha256(serial_blob.encode()).hexdigest(),
        "wall_seconds": round(time.time() - started, 1),
    }
