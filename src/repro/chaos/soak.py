"""``repro chaos-soak``: prove determinism-under-fault end to end.

The soak runs a small experiment grid four times against one shared
run-cache directory:

1. **clean cold** — compute everything, populate the cache;
2. **chaos A** — same grid under a :class:`~repro.chaos.FaultPlan`:
   cache reads corrupt entries, workers crash, pools break, backoff
   clocks jump;
3. **clean repair** — recompute whatever the chaos pass lost (dropped
   cache writes), restoring the warm state;
4. **chaos B** — the chaos pass again with a *fresh injector* built
   from the same plan and seed.

It then asserts the three properties the chaos layer exists to
guarantee:

- **byte-identical results**: the canonical JSON of every pass matches
  the clean run exactly — injected failures may cost time, never
  correctness;
- **no unanswered faults**: every fired fault carries a recovery
  action in the trace (a fault nobody recovered is a bug, and the soak
  fails);
- **reproducibility**: chaos A and chaos B produce the same canonical
  fault trace — same seed ⇒ same faults ⇒ same recoveries.

With ``serve=True`` it then serves the warm soak cache as the shared
tier (``repro serve``) with ``serve.accept``/``serve.body`` faults
active, and runs the grid once more from a fresh local cache that
reads through that tier (:class:`~repro.sim.cache.HttpCacheTier`).  A
dropped connection reads as a tier miss and a stalled PUT answers 408,
so the worker computes or keeps the cell locally: the grid must still
match the clean pass byte for byte.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.chaos.faults import FaultInjector, FaultPlan

#: Grid used by ``chaos-soak --quick`` (cheap but multi-experiment,
#: with cells shared across sibling experiments).
QUICK_EXPERIMENTS = ("fig9", "table1")

#: Default (non-quick) soak grid.
DEFAULT_EXPERIMENTS = ("fig1", "fig7", "fig9", "table1")


def _canonical_trace(injector: FaultInjector) -> list[tuple]:
    """Order-independent trace signature for cross-run comparison."""
    return sorted(
        (r.site, r.token, r.recovered) for r in injector.records
    )


def _run_grid(experiments: Sequence[str], scale_name: str, jobs: int,
              cache_dir: Path, injector: FaultInjector | None,
              tier=None) -> tuple[bytes, dict]:
    """One grid pass; returns (canonical result bytes, stats dict)."""
    import dataclasses

    from repro.cli import SCALES, suite_plans
    from repro.experiments.serialize import to_jsonable
    from repro.sim.cache import RunCache
    from repro.sim.jobs import Executor, run_plans

    cache = RunCache(cache_dir, injector=injector, tier=tier)
    executor = Executor(jobs=jobs, cache=cache, injector=injector,
                        max_attempts=6, backoff_base=0.01)
    entries = suite_plans(SCALES[scale_name], list(experiments))
    results = run_plans([plan for _, _, plan in entries], executor)
    payload = {
        key: to_jsonable(result)
        for (_, key, _), result in zip(entries, results)
    }
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    stats = dataclasses.asdict(executor.stats)
    stats["cache"] = {
        "hits": cache.hits, "misses": cache.misses,
        "corrupt_evictions": cache.corrupt_evictions,
        "write_failures": cache.write_failures,
    }
    if tier is not None:
        stats["tier"] = {
            "hits": cache.tier_hits, "misses": cache.tier_misses,
            "stores": cache.tier_stores, "errors": cache.tier_errors,
        }
    return body, stats


def _serve_phase(experiments: Sequence[str], scale_name: str, jobs: int,
                 cache_dir: Path, injector: FaultInjector,
                 clean_bytes: bytes) -> dict:
    """Serve ``cache_dir`` as the shared tier under serve faults and run
    the grid through it from a fresh local cache."""
    from repro.serve.server import ServerThread
    from repro.sim.cache import HttpCacheTier, RunCache

    with tempfile.TemporaryDirectory(prefix="repro-chaos-l1-") as l1, \
            ServerThread(cache=RunCache(cache_dir),
                         injector=injector) as server:
        tier = HttpCacheTier(f"http://127.0.0.1:{server.port}")
        body, stats = _run_grid(experiments, scale_name, jobs, Path(l1),
                                injector=None, tier=tier)
    return {"identical_grid": body == clean_bytes, "stats": stats}


def run_soak(scale: str = "quick",
             experiments: Sequence[str] | None = None,
             plan_spec: str = "0.2", seed: int = 0, jobs: int = 2,
             serve: bool = True, cache_dir: str | Path | None = None,
             quick: bool = False) -> dict:
    """Run the full soak; returns a JSON-ready report (``report["ok"]``
    is the pass/fail verdict the CLI turns into an exit code)."""
    started = time.time()
    if experiments is None:
        experiments = QUICK_EXPERIMENTS if quick else DEFAULT_EXPERIMENTS
    plan = FaultPlan.parse(plan_spec, seed=seed)
    report: dict = {
        "scale": scale,
        "experiments": list(experiments),
        "plan": plan.as_dict(),
        "jobs": jobs,
    }
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as td:
        root = Path(cache_dir) if cache_dir is not None else Path(td)
        grid_dir = root / "soak-cache"

        clean_bytes, clean_stats = _run_grid(
            experiments, scale, jobs, grid_dir, injector=None
        )
        report["clean_stats"] = clean_stats

        injector_a = FaultInjector(plan)
        try:
            chaos_a_bytes, stats_a = _run_grid(
                experiments, scale, jobs, grid_dir, injector_a
            )
        except Exception as exc:  # noqa: BLE001 - the soak's whole point
            report["error"] = f"chaos pass A raised {type(exc).__name__}: {exc}"
            report["ok"] = False
            report["wall_seconds"] = round(time.time() - started, 3)
            return report
        report["chaos_a_stats"] = stats_a

        # Repair: recompute entries the chaos pass lost to dropped
        # writes, restoring the warm cache so pass B sees pass A's
        # starting state and the traces are comparable.
        _run_grid(experiments, scale, jobs, grid_dir, injector=None)

        injector_b = FaultInjector(FaultPlan.parse(plan_spec, seed=seed))
        try:
            chaos_b_bytes, stats_b = _run_grid(
                experiments, scale, jobs, grid_dir, injector_b
            )
        except Exception as exc:  # noqa: BLE001
            report["error"] = f"chaos pass B raised {type(exc).__name__}: {exc}"
            report["ok"] = False
            report["wall_seconds"] = round(time.time() - started, 3)
            return report
        report["chaos_b_stats"] = stats_b

        report["identical_grid"] = (
            clean_bytes == chaos_a_bytes == chaos_b_bytes
        )
        report["trace_deterministic"] = (
            _canonical_trace(injector_a) == _canonical_trace(injector_b)
        )

        serve_report: dict = {"enabled": bool(serve)}
        injector_serve = None
        if serve:
            injector_serve = FaultInjector(FaultPlan.parse(plan_spec,
                                                           seed=seed))
            serve_report.update(_serve_phase(
                experiments, scale, jobs, grid_dir, injector_serve,
                clean_bytes,
            ))
        report["serve"] = serve_report

        injectors = {"grid_a": injector_a, "grid_b": injector_b}
        if injector_serve is not None:
            injectors["serve"] = injector_serve
        report["faults_fired"] = {
            name: inj.fired_by_site() for name, inj in injectors.items()
        }
        unrecovered = {
            name: [r.as_dict() for r in inj.unrecovered()]
            for name, inj in injectors.items() if inj.unrecovered()
        }
        report["unrecovered"] = unrecovered
        report["trace"] = {
            name: inj.trace() for name, inj in injectors.items()
        }
        total_fired = sum(
            sum(counts.values()) for counts in report["faults_fired"].values()
        )
        report["total_faults_fired"] = total_fired
        report["ok"] = (
            report["identical_grid"]
            and report["trace_deterministic"]
            and not unrecovered
            and (not serve or serve_report["identical_grid"])
        )
    report["wall_seconds"] = round(time.time() - started, 3)
    return report


def write_trace(report: dict, out: str | Path) -> Path:
    """Persist the soak report (the CI artifact)."""
    path = Path(out)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
