"""Command-line interface: regenerate the paper from a shell.

Usage::

    python -m repro list
    python -m repro run fig7 --scale quick
    python -m repro run fig13 fig14 --scale default --jobs 4
    python -m repro suite --scale quick --jobs 8
    python -m repro bench --scale default --out BENCH_engine.json
    python -m repro bench-suite --scale quick --out BENCH_suite.json
    python -m repro serve --port 8377 --workers 2
    python -m repro submit fig11 --scale quick
    python -m repro bench-serve --clients 8 --out BENCH_serve.json
    python -m repro sweep --policies thp,ca --workloads svm,pagerank
    python -m repro sweep --submit --stream --port 8377
    python -m repro cache stats
    python -m repro cache prune --max-bytes 500M
    python -m repro run fig9 --chaos-plan 0.2 --chaos-seed 7
    python -m repro chaos-soak --quick --out CHAOS_TRACE.json

Experiments decompose into run cells (see :mod:`repro.sim.jobs`);
``--jobs N`` fans the cells of all requested experiments out over N
worker processes, and results are memoized in a content-addressed
on-disk cache (``--cache-dir``, disable with ``--no-cache``) keyed by
cell spec + source digest, so repeated and overlapping invocations skip
the simulation work entirely.

Each experiment prints the same rows/series the paper reports; see
EXPERIMENTS.md for paper-vs-measured commentary.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

from repro.sim.config import BIG_SCALE, DEFAULT_SCALE, QUICK_SCALE

#: Experiment name -> (module, description).
EXPERIMENTS: dict[str, str] = {
    "fig1": "motivation: eager decay across runs, ranger latency",
    "table1": "vRMM ranges & vHC anchors for 99% coverage",
    "fig7": "native contiguity, no memory pressure",
    "fig8": "contiguity under hog fragmentation",
    "fig9": "free-block size distribution after runs",
    "fig10": "multi-programmed 2x SVM",
    "fig11": "software runtime overheads vs THP",
    "table5": "page-fault count + 99th latency",
    "table6": "memory bloat vs 4K demand paging",
    "fig12": "virtualized (2D) contiguity",
    "fig13": "translation overheads: 4K/THP/SpOT/vRMM/DS",
    "fig14": "SpOT prediction breakdown",
    "table7": "unsafe-load (USL) estimation",
    # Extensions beyond the paper's figures (§VII claims made testable).
    "ext_shadow": "extension: nested vs shadow paging under CA+SpOT",
    "ext_multivm": "extension: two consolidated VMs on one host",
    "ext_vhc": "extension: hybrid coalescing run, not just counted",
}

# The unit-test profile is deliberately absent: its machines are too
# small to hold the workload suite.
SCALES = {
    "quick": QUICK_SCALE,
    "default": DEFAULT_SCALE,
    "big": BIG_SCALE,
}


def experiment_plans(name: str, scale) -> list[tuple[str, "object"]]:
    """The ``(result_key, Plan)`` pairs one experiment contributes.

    Most experiments expose a single ``plan()``; fig 1 carries two
    sub-experiments with their own plans.
    """
    module = importlib.import_module(f"repro.experiments.{name}")
    if name == "fig1":
        return [
            ("fig1b", module.plan_fig1b(scale=scale)),
            ("fig1c", module.plan_fig1c(scale=scale)),
        ]
    return [(name, module.plan(scale=scale))]


def suite_plans(scale, names=None) -> list[tuple[str, str, "object"]]:
    """``(experiment, result_key, Plan)`` for every requested experiment."""
    entries = []
    for name in (names if names is not None else EXPERIMENTS):
        for key, plan in experiment_plans(name, scale):
            entries.append((name, key, plan))
    return entries


def make_injector(args):
    """Build the chaos injector ``--chaos-plan``/``--chaos-seed``
    describe (``None`` when chaos is off — the default)."""
    spec = getattr(args, "chaos_plan", None)
    if not spec:
        return None
    from repro.chaos import FaultInjector, FaultPlan

    return FaultInjector(FaultPlan.parse(
        spec, seed=getattr(args, "chaos_seed", 0) or 0
    ))


def make_executor(args, injector=None):
    """Build the Executor the ``--jobs``/cache/chaos flags describe."""
    from repro.sim.cache import HttpCacheTier, RunCache
    from repro.sim.jobs import Executor

    cache = None
    if not getattr(args, "no_cache", False):
        tier = None
        cache_url = getattr(args, "cache_url", None)
        if cache_url:
            tier = HttpCacheTier(cache_url)
        cache = RunCache(getattr(args, "cache_dir", None), injector=injector,
                         tier=tier)
    return Executor(jobs=getattr(args, "jobs", None) or 1, cache=cache,
                    injector=injector)


def _run_experiments(names: list[str], args) -> int:
    from repro.sim.jobs import run_plans

    scale = SCALES[args.scale]
    json_dir = _json_dir(args)
    injector = make_injector(args)
    executor = make_executor(args, injector=injector)
    started = time.time()
    entries = suite_plans(scale, names)
    try:
        results = run_plans([plan for _, _, plan in entries], executor)
    finally:
        executor.close()
    by_name: dict[str, list[tuple[str, object]]] = {}
    for (name, key, _), result in zip(entries, results):
        by_name.setdefault(name, []).append((key, result))
    for name in names:
        print(f"=== {name}: {EXPERIMENTS[name]} (scale={args.scale}) ===")
        for key, result in by_name[name]:
            if key != name:
                print(f"[{key}]")
            print(result.report())
            if json_dir is not None:
                from repro.experiments.serialize import save_result

                out = save_result(
                    json_dir / f"{key}.json", key, result, scale=args.scale
                )
                print(f"[saved {out}]")
        print()
    s = executor.stats
    print(
        f"[{len(entries)} plan(s), {s.submitted} cell(s): "
        f"{s.computed} computed, {s.cache_hits} cached, "
        f"{s.deduped} deduped; jobs={executor.jobs}; "
        f"{time.time() - started:.1f}s]"
    )
    cache = executor.cache
    if cache is not None and cache.tier is not None:
        print(f"[cache tier: {cache.tier_hits} hit(s), "
              f"{cache.tier_misses} miss(es), "
              f"{cache.tier_stores} store(s), "
              f"{cache.tier_errors} error(s)]")
    if injector is not None:
        fired = sum(injector.fired_by_site().values())
        unrecovered = injector.unrecovered()
        print(f"[chaos: {fired} fault(s) fired "
              f"({injector.fired_by_site()}), "
              f"{len(unrecovered)} unrecovered]")
        if unrecovered:
            for record in unrecovered:
                print(f"  UNRECOVERED {record.site} @ {record.token}",
                      file=sys.stderr)
            return 1
    return 0


def _cmd_list(_args) -> int:
    width = max(len(n) for n in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def _json_dir(args):
    if not getattr(args, "json", None):
        return None
    from pathlib import Path

    path = Path(args.json)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    for name in args.experiment:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try `python -m repro list`",
                  file=sys.stderr)
            return 2
    return _run_experiments(list(args.experiment), args)


def _cmd_suite(args) -> int:
    return _run_experiments(list(EXPERIMENTS), args)


def _cmd_bench(args) -> int:
    import os

    from repro.bench import BENCH_SCALES, run_bench, write_report

    scale_name = args.scale or os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale_name not in BENCH_SCALES:
        print(f"unknown bench scale {scale_name!r}; "
              f"choose from {sorted(BENCH_SCALES)}", file=sys.stderr)
        return 2
    print(f"=== bench: engine A/B (scale={scale_name}, "
          f"workload={args.workload}) ===")
    report = run_bench(
        scale_name, args.workload, args.trace_len, fault_steps=args.fault_steps
    )
    out = write_report(report, args.out)
    fault = report["fault_path"]
    if scale_name == "paper":
        col = fault["columnar"]
        print(f"fault path [paper/{fault['policy']}]: columnar "
              f"{col['seconds']:.1f}s for {col['faults']:,} faults "
              f"({col['faults_per_sec']:,.0f}/s)")
        print(f"scalar projected: {fault['scalar_projected_seconds']:.0f}s, "
              f"fast projected: {fault['fast_projected_seconds']:.0f}s "
              f"(budget {fault['budget_seconds']:.0f}s)")
        print(f"columnar in budget: {fault['columnar_in_budget']}, "
              f"scalar in budget: {fault['scalar_in_budget']}")
        print(f"fault-path speedup (projected scalar / columnar): "
              f"{report['fault_speedup']}x")
        print(f"[saved {out} in {report['wall_seconds']}s]")
        if not fault["columnar_in_budget"]:
            print("columnar paper-tier run blew the budget", file=sys.stderr)
            return 1
        if args.min_fault_speedup and report["fault_speedup"] < args.min_fault_speedup:
            print(f"fault-path speedup {report['fault_speedup']}x below required "
                  f"{args.min_fault_speedup}x", file=sys.stderr)
            return 1
        return 0
    for policy, row in fault["policies"].items():
        print(f"fault path [{policy:>6}]: scalar {row['scalar']['seconds']:.2f}s"
              f" -> fast {row['fast']['seconds']:.2f}s"
              f" -> columnar {row['columnar']['seconds']:.2f}s"
              f" ({row['speedup']}x, identical={row['engines_identical']})")
    print(f"fault path aggregate: {report['fault_speedup']}x faults/sec")
    for name, row in report["replay"]["states"].items():
        print(f"replay [{name}]: {row['scalar_accesses_per_sec']:.0f}"
              f" -> {row['vector_accesses_per_sec']:.0f} accesses/sec"
              f" ({row['speedup']}x, identical={row['engines_identical']})")
    print(f"replay speedup (min over states): {report['replay_speedup']}x")
    for name, row in report["walk_path"]["states"].items():
        print(f"walk path [{name}]: {row['scalar_walks_per_sec']:.0f}"
              f" -> {row['vector_walks_per_sec']:.0f} walks/sec"
              f" (miss rate {row['miss_rate']}, {row['speedup']}x, "
              f"identical={row['engines_identical']})")
    print(f"walk-path speedup (min over states): {report['walk_speedup']}x")
    print(f"engines identical: {report['engines_identical']}")
    print(f"[saved {out} in {report['wall_seconds']}s]")
    if not report["engines_identical"]:
        return 1
    if args.min_walk_speedup and report["walk_speedup"] < args.min_walk_speedup:
        print(f"walk-path speedup {report['walk_speedup']}x below required "
              f"{args.min_walk_speedup}x", file=sys.stderr)
        return 1
    if args.min_fault_speedup and report["fault_speedup"] < args.min_fault_speedup:
        print(f"fault-path speedup {report['fault_speedup']}x below required "
              f"{args.min_fault_speedup}x", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_suite(args) -> int:
    from repro.bench import run_suite_bench, write_report

    for name in args.experiments or ():
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try `python -m repro list`",
                  file=sys.stderr)
            return 2
    print(f"=== bench-suite: orchestrator serial/cold/warm/two-tier "
          f"(scale={args.scale}, jobs={args.jobs or 'auto'}) ===")
    report = run_suite_bench(
        args.scale,
        jobs=args.jobs,
        experiments=tuple(args.experiments) if args.experiments else None,
        cache_root=args.cache_dir,
    )
    for mode, row in report["modes"].items():
        s = row["stats"]
        extra = (
            f" ({row['speedup_vs_serial']}x vs serial)"
            if "speedup_vs_serial" in row else ""
        )
        tier = s.get("tier")
        tier_note = (
            f"; tier {tier['hits']}h/{tier['stores']}s/{tier['errors']}e"
            if tier else ""
        )
        print(f"{mode:>13}: {row['seconds']:.2f}s{extra} — "
              f"{s['computed']} computed, {s['cache_hits']} cached, "
              f"{s['deduped']} deduped of {s['submitted']}{tier_note}")
    print(f"two-tier federation: {report['two_tier_hits']} cell(s) "
          f"served by the shared tier, {report['two_tier_computed']} "
          f"recomputed")
    ser = report["serialize"]
    print(f"serialize overhead: {ser['total_bytes']:,} bytes across "
          f"{ser['cells_measured']} cells in {ser['total_seconds']:.3f}s "
          f"({ser['share_of_cold'] * 100:.1f}% of the cold pass per pickling)")
    for row in ser["top_cells"][:3]:
        print(f"  heaviest: {row['cell']} — {row['bytes']:,} bytes "
              f"({row['seconds'] * 1000:.1f} ms)")
    print(f"results identical across modes: {report['results_identical']}")
    out = write_report(report, args.out)
    print(f"[saved {out} in {report['wall_seconds']}s]")
    ok = report["results_identical"]
    if report["two_tier_computed"] != 0:
        print(f"two-tier pass recomputed {report['two_tier_computed']} "
              f"cell(s) the shared tier should have served",
              file=sys.stderr)
        ok = False
    if args.min_warm_speedup and report["warm_speedup"] < args.min_warm_speedup:
        print(f"warm speedup {report['warm_speedup']}x below gate "
              f"{args.min_warm_speedup}x", file=sys.stderr)
        ok = False
    if args.min_cold_speedup:
        if not report["parallel_gate_meaningful"]:
            print(f"[skipping --min-cold-speedup {args.min_cold_speedup}x "
                  f"gate: only {report['cpus']} cpu(s); parallel-vs-serial "
                  f"is meaningless without >=2 cores]")
        elif report["cold_speedup"] < args.min_cold_speedup:
            print(f"cold speedup {report['cold_speedup']}x below gate "
                  f"{args.min_cold_speedup}x", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G/T suffix (``"500M"``)."""
    text = str(text).strip()
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    factor = 1
    if text and text[-1].upper() in suffixes:
        factor = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (expected e.g. 1000000, 500M, 2G)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return int(value * factor)


def _cmd_serve(args) -> int:
    from repro.serve.server import build_server

    build_server(args).run()
    return 0


def _cmd_submit(args) -> int:
    import json as _json

    from repro.serve.client import ServeClient, ServeError

    params = None
    if args.params:
        try:
            params = _json.loads(args.params)
        except _json.JSONDecodeError as exc:
            print(f"--params is not valid JSON: {exc}", file=sys.stderr)
            return 2
    client = ServeClient(host=args.host, port=args.port)
    try:
        if args.stream:
            payload = None
            for event in client.iter_stream(
                args.experiment, scale=args.scale, params=params
            ):
                if event.get("event") == "result":
                    payload = event["data"]
                else:
                    print(_json.dumps(event, sort_keys=True))
            if payload is None:
                print("stream ended without a result", file=sys.stderr)
                return 1
        else:
            resp = client.run(args.experiment, scale=args.scale, params=params)
            if resp.status == 503:
                retry = resp.headers.get("retry-after", "?")
                print(f"server busy (503); retry after {retry}s",
                      file=sys.stderr)
                return 1
            if not resp.ok:
                print(f"HTTP {resp.status}: {resp.body.decode(errors='replace')}",
                      file=sys.stderr)
                return 1
            payload = resp.json
            print(f"[job coalesced={int(resp.coalesced)} "
                  f"elapsed={resp.elapsed_ms:.1f}ms "
                  f"computed={resp.cells_computed} "
                  f"cached={resp.cells_cached}]", file=sys.stderr)
    except (ServeError, ConnectionError, OSError) as exc:
        print(f"cannot reach server at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    for key, report in payload["reports"].items():
        if key != args.experiment:
            print(f"[{key}]")
        print(report)
    if args.json:
        from pathlib import Path

        out = Path(args.json)
        out.write_text(_json.dumps(payload, indent=2, sort_keys=True))
        print(f"[saved {out}]", file=sys.stderr)
    return 0


def _cmd_bench_serve(args) -> int:
    from repro.bench import write_report
    from repro.serve.loadgen import run_serve_bench

    print(f"=== bench-serve: cold coalescing + warm latency "
          f"(scale={args.scale}, experiment={args.experiment}, "
          f"clients={args.clients}) ===")
    report = run_serve_bench(
        args.scale, experiment=args.experiment, clients=args.clients,
        warm_rounds=args.warm_rounds, cache_root=args.cache_dir,
        workers=args.workers,
    )
    cold, warm = report["cold"], report["warm"]
    print(f" cold: p50 {cold['p50_ms']:.0f}ms over {cold['requests']} "
          f"clients — {cold['executor_jobs']:.0f} executor job(s), "
          f"{cold['coalesced_joins']:.0f} coalesced join(s), "
          f"{cold['unique_bodies']} unique body(ies)")
    print(f" warm: p50 {warm['p50_ms']:.1f}ms p95 {warm['p95_ms']:.1f}ms "
          f"p99 {warm['p99_ms']:.1f}ms — {warm['throughput_rps']} req/s "
          f"over {warm['requests']} requests")
    sweep = report["sweep"]
    print(f" sweep: stream p50 {sweep['p50_ms']:.0f}ms "
          f"p95 {sweep['p95_ms']:.0f}ms over {sweep['requests']} "
          f"overlapping grids — {sweep['points_total']} points, "
          f"{sweep['cells_computed']:.0f} computed of "
          f"{sweep['cell_refs']} cell refs "
          f"(dedup ratio {sweep['dedup_ratio']})")
    tier = report.get("tier") or {}
    if tier.get("bytes_on_wire"):
        print(f" tier: {tier['bytes_on_wire']:,}B rpt1 on "
              f"the wire vs {tier['raw_equivalent_bytes']:,}B raw "
              f"({tier['wire_reduction']}x)")
    print(f" coalescing_ok={report['coalescing_ok']} "
          f"bodies_identical={report['bodies_identical']} "
          f"sweep_ok={report['sweep_ok']} "
          f"failed={report['failed_requests']} "
          f"warm_over_cold={report['warm_over_cold']}x")
    out = write_report(report, args.out)
    print(f"[saved {out} in {report['wall_seconds']}s]")
    ok = (report["failed_requests"] == 0 and report["coalescing_ok"]
          and report["bodies_identical"] and report["sweep_ok"])
    if args.min_warm_speedup and report["warm_over_cold"] < args.min_warm_speedup:
        print(f"warm-over-cold {report['warm_over_cold']}x below gate "
              f"{args.min_warm_speedup}x", file=sys.stderr)
        ok = False
    if args.max_warm_p50_ms and report["warm_p50_ms"] > args.max_warm_p50_ms:
        print(f"warm p50 {report['warm_p50_ms']}ms above gate "
              f"{args.max_warm_p50_ms}ms", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def _cmd_chaos_soak(args) -> int:
    from repro.chaos.soak import run_soak, write_trace

    for name in args.experiments or ():
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try `python -m repro list`",
                  file=sys.stderr)
            return 2
    print(f"=== chaos-soak: determinism under faults "
          f"(scale={args.scale}, plan={args.plan}, seed={args.seed}) ===")
    report = run_soak(
        scale=args.scale,
        experiments=tuple(args.experiments) if args.experiments else None,
        plan_spec=args.plan, seed=args.seed, jobs=args.jobs,
        serve=not args.skip_serve, quick=args.quick,
    )
    out = write_trace(report, args.out)
    if "error" in report:
        print(f"UNHANDLED: {report['error']}", file=sys.stderr)
    else:
        print(f" grid: {report['experiments']} — byte-identical across "
              f"clean/chaos-A/chaos-B: {report['identical_grid']}")
        print(f" trace: {report['total_faults_fired']} fault(s) fired "
              f"{report['faults_fired']}; "
              f"deterministic={report['trace_deterministic']}; "
              f"unrecovered={sum(len(v) for v in report['unrecovered'].values())}")
        serve = report["serve"]
        if serve.get("enabled"):
            print(f" serve: statuses={serve.get('statuses')} "
                  f"bodies_identical={serve.get('bodies_identical')} "
                  f"results_match_clean={serve.get('results_match_clean')}")
            print(f" sweep: statuses={serve.get('sweep_statuses')} "
                  f"bodies_identical={serve.get('sweep_bodies_identical')} "
                  f"matches_clean={serve.get('sweep_matches_clean')}")
    print(f"[saved {out} in {report['wall_seconds']}s]")
    print(f"chaos-soak: {'OK' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _make_cache(args):
    from repro.sim.cache import HttpCacheTier, RunCache

    tier = None
    cache_url = getattr(args, "cache_url", None)
    if cache_url:
        tier = HttpCacheTier(cache_url)
    return RunCache(getattr(args, "cache_dir", None), tier=tier)


def _cmd_cache_stats(args) -> int:
    cache = _make_cache(args)
    stats = cache.stats()
    print(f"cache root:  {stats['root']}")
    print(f"entries:     {stats['entries']}")
    print(f"total bytes: {stats['total_bytes']:,}")
    if stats["entries"]:
        print(f"compression: {stats['logical_bytes']:,} logical bytes "
              f"in {stats['framed_bytes']:,} stored across "
              f"{stats['framed_entries']} framed entries "
              f"({stats['compression_ratio']:.2f}x)")
    if stats["quarantined"]:
        print(f"quarantined: {stats['quarantined']} "
              f"({stats['quarantined_bytes']:,} bytes)")
    if stats["entries"]:
        age = time.time() - stats["oldest_mtime"]
        print(f"oldest entry age: {age / 3600:.1f}h")
    # Federation counters were collected by stats() all along but never
    # printed, so tier traffic was invisible from the CLI.
    if cache.tier is not None or any(
        stats[k] for k in ("tier_hits", "tier_misses",
                           "tier_stores", "tier_errors")
    ):
        print(f"tier hits:       {stats['tier_hits']}")
        print(f"tier misses:     {stats['tier_misses']}")
        print(f"tier promotions: {stats['tier_stores']}")
        print(f"tier errors:     {stats['tier_errors']}")
    return 0


def _sweep_spec_from_args(args) -> dict:
    """The JSON-shaped request the sweep flags describe."""
    request: dict = {
        "policies": args.policies,
        "schemes": args.schemes,
        "workloads": args.workloads,
        "scale": args.scale,
        "trace_len": args.trace_len,
        "seed": args.seed,
        "hog": args.hog,
    }
    if args.exclude:
        clauses = []
        for text in args.exclude:
            clause = {}
            for pair in text.split(","):
                axis, _, value = pair.partition("=")
                clause[axis.strip()] = value.strip()
            clauses.append(clause)
        request["exclude"] = clauses
    return request


def _print_sweep_outcome(data: dict) -> None:
    print(f"grid: {data['points']} point(s) over "
          f"{data['unique_cells']} unique cell(s)")
    print(f"frontier ({data['frontier_size']} point(s), minimizing "
          f"overhead x bloat):")
    width = max((len(f["label"]) for f in data["frontier"]), default=5)
    for f in data["frontier"]:
        print(f"  {f['label'].ljust(width)}  overhead={f['overhead']:.4f}  "
              f"bloat={f['bloat_fraction']:.4f}  "
              f"99%-mappings={f['mappings_99']}")


def _sweep_gates(args, frontier_size: int, computed: int) -> int:
    ok = True
    if args.max_computed is not None and computed > args.max_computed:
        print(f"computed {computed} cell(s), above the "
              f"--max-computed {args.max_computed} gate", file=sys.stderr)
        ok = False
    if args.min_frontier is not None and frontier_size < args.min_frontier:
        print(f"frontier has {frontier_size} point(s), below the "
              f"--min-frontier {args.min_frontier} gate", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    import json as _json

    from repro.sweep.grid import SweepSpec, SweepValidationError

    request = _sweep_spec_from_args(args)
    try:
        spec = SweepSpec.from_request(request)
    except SweepValidationError as exc:
        print(f"bad sweep: {exc}", file=sys.stderr)
        return 2

    if args.submit:
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(host=args.host, port=args.port)
        try:
            if args.stream:
                data = None
                computed = 0
                for event in client.iter_sweep_stream(request):
                    if event.get("event") == "result":
                        data = event["data"]
                    else:
                        if event.get("event") == "finished":
                            computed = event.get("computed", 0)
                        print(_json.dumps(event, sort_keys=True))
                if data is None:
                    print("stream ended without a result", file=sys.stderr)
                    return 1
            else:
                resp = client.sweep(request)
                if not resp.ok:
                    print(f"HTTP {resp.status}: "
                          f"{resp.body.decode(errors='replace')}",
                          file=sys.stderr)
                    return 1
                data = resp.json
                computed = resp.cells_computed
                print(f"[sweep {resp.sweep_id} "
                      f"coalesced={int(resp.coalesced)} "
                      f"elapsed={resp.elapsed_ms:.1f}ms "
                      f"computed={computed} cached={resp.cells_cached}]",
                      file=sys.stderr)
        except (ServeError, ConnectionError, OSError) as exc:
            print(f"cannot reach server at {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        from repro.sweep.runner import run_sweep

        injector = make_injector(args)
        executor = make_executor(args, injector=injector)
        try:
            data, stats, _run = run_sweep(spec, executor)
        finally:
            executor.close()
        computed = stats.computed
        print(f"[{stats.seconds:.1f}s: {computed} computed, "
              f"{stats.cache_hits} cached, {stats.deduped} deduped "
              f"of {stats.submitted} cell(s); jobs={executor.jobs}]",
              file=sys.stderr)

    _print_sweep_outcome(data)
    if args.json:
        from pathlib import Path

        out = Path(args.json)
        out.write_text(_json.dumps(data, indent=2, sort_keys=True))
        print(f"[saved {out}]", file=sys.stderr)
    return _sweep_gates(args, data["frontier_size"], computed)


def _cmd_cache_prune(args) -> int:
    summary = _make_cache(args).prune(args.max_bytes)
    print(f"removed {summary['removed']} entry(ies), "
          f"freed {summary['freed_bytes']:,} bytes; "
          f"{summary['remaining_entries']} entry(ies) "
          f"({summary['remaining_bytes']:,} bytes) remain "
          f"<= {summary['max_bytes']:,} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the ISCA'20 contiguity paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    def add_orchestrator_flags(p, default_jobs: int) -> None:
        p.add_argument(
            "--scale", choices=sorted(SCALES), default="quick",
            help="scale profile (default: quick)",
        )
        p.add_argument(
            "--json", metavar="DIR",
            help="also write each result as JSON into this directory",
        )
        p.add_argument(
            "--jobs", type=int, default=default_jobs, metavar="N",
            help=f"worker processes for cell fan-out (default: {default_jobs})",
        )
        p.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="content-addressed run cache location (default: "
                 "$REPRO_CACHE_DIR or .repro-cache)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="compute every cell, skip cache reads and writes",
        )
        p.add_argument(
            "--cache-url", metavar="URL", default=None,
            help="shared read-through cache tier: a `repro serve` base "
                 "URL (e.g. http://127.0.0.1:8377); local misses are "
                 "fetched by digest before computing, and local stores "
                 "are pushed back (see docs/scaling.md)",
        )
        add_chaos_flags(p)

    def add_chaos_flags(p) -> None:
        p.add_argument(
            "--chaos-plan", metavar="SPEC", default=None,
            help="enable fault injection: a probability for every site "
                 "('0.2') or a site=p list ('cache.read=0.1,"
                 "pool.worker=0.3'); see docs/robustness.md",
        )
        p.add_argument(
            "--chaos-seed", type=int, default=0, metavar="N",
            help="seed for the fault plan (same seed => same faults; "
                 "default: 0)",
        )

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument("experiment", nargs="+", help="experiment name(s)")
    add_orchestrator_flags(run_p, default_jobs=1)
    run_p.set_defaults(func=_cmd_run)

    suite_p = sub.add_parser("suite", help="run every experiment")
    add_orchestrator_flags(suite_p, default_jobs=os.cpu_count() or 1)
    suite_p.set_defaults(func=_cmd_suite)

    bench_p = sub.add_parser(
        "bench", help="A/B the scalar vs batched simulation engines"
    )
    bench_p.add_argument(
        "--scale", default=None,
        help="bench scale: test/quick/default/big/paper (default: "
             "$REPRO_BENCH_SCALE or default); 'paper' runs the "
             "face-value fault phase only (columnar full run + "
             "reference-engine projections)",
    )
    bench_p.add_argument(
        "--workload", default="svm", help="workload to replay (default: svm)",
    )
    bench_p.add_argument(
        "--trace-len", type=int, default=200_000,
        help="replay-phase trace length (default: 200000)",
    )
    bench_p.add_argument(
        "--out", default="BENCH_engine.json", metavar="FILE",
        help="JSON report path (default: BENCH_engine.json)",
    )
    bench_p.add_argument(
        "--min-walk-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless the walk-path phase beats the scalar "
             "engine by at least this factor (CI gate)",
    )
    bench_p.add_argument(
        "--min-fault-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless the fault phase's columnar engine "
             "beats the scalar engine by at least this factor (CI gate)",
    )
    bench_p.add_argument(
        "--fault-steps", type=int, default=None, metavar="N",
        help="cap the fault phase at N allocation steps per engine "
             "(CI smoke for the paper scale; default: all steps)",
    )
    bench_p.set_defaults(func=_cmd_bench)

    suite_bench_p = sub.add_parser(
        "bench-suite",
        help="A/B/C the orchestrator: serial vs parallel-cold vs warm",
    )
    suite_bench_p.add_argument(
        "--scale", choices=sorted(SCALES), default="quick",
        help="scale profile (default: quick)",
    )
    suite_bench_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan-out width for the parallel passes (default: all cores)",
    )
    suite_bench_p.add_argument(
        "--experiments", nargs="*", default=None, metavar="NAME",
        help="subset of experiments to bench (default: the whole suite)",
    )
    suite_bench_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="scratch cache directory — cleared before the cold pass "
             "(default: a private temp dir)",
    )
    suite_bench_p.add_argument(
        "--out", default="BENCH_suite.json", metavar="FILE",
        help="JSON report path (default: BENCH_suite.json)",
    )
    suite_bench_p.add_argument(
        "--min-warm-speedup", type=float, default=0.0, metavar="X",
        help="fail unless the warm pass beats serial by at least X times",
    )
    suite_bench_p.add_argument(
        "--min-cold-speedup", type=float, default=0.0, metavar="X",
        help="fail unless the parallel-cold pass beats serial by at "
             "least X times (skipped with a note on single-CPU boxes, "
             "where the comparison is meaningless)",
    )
    suite_bench_p.set_defaults(func=_cmd_bench_suite)

    serve_p = sub.add_parser(
        "serve", help="start the long-lived simulation service"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8377,
                         help="bind port; 0 picks one (default: 8377)")
    serve_p.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="max jobs waiting to start before 503s (default: 16)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (default: 2)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per job's cell fan-out (default: 1, "
             "inline in the worker thread)",
    )
    serve_p.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint on 503 responses (default: 1)",
    )
    serve_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="run cache location (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="recompute every request, skip the run cache (also "
             "disables the /v1/cache tier endpoints)",
    )
    serve_p.add_argument(
        "--cache-url", metavar="URL", default=None,
        help="upstream cache tier this server itself reads through "
             "(for chained tiers); usually unset — workers point their "
             "--cache-url at *this* server instead",
    )
    add_chaos_flags(serve_p)
    serve_p.set_defaults(func=_cmd_serve)

    soak_p = sub.add_parser(
        "chaos-soak",
        help="run the suite clean vs under a fault plan; fail unless "
             "results are byte-identical and every fault recovered",
    )
    soak_p.add_argument(
        "--scale", choices=sorted(SCALES), default="quick",
        help="scale profile (default: quick)",
    )
    soak_p.add_argument(
        "--quick", action="store_true",
        help="small grid (fast CI smoke) instead of the default grid",
    )
    soak_p.add_argument(
        "--experiments", nargs="*", default=None, metavar="NAME",
        help="explicit soak grid (default: a built-in grid; see --quick)",
    )
    soak_p.add_argument(
        "--plan", default="0.2", metavar="SPEC",
        help="fault plan (default: 0.2 on every site)",
    )
    soak_p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="fault plan seed (default: 0)",
    )
    soak_p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for the grid passes (default: 2)",
    )
    soak_p.add_argument(
        "--skip-serve", action="store_true",
        help="skip the HTTP serve phase (grid passes only)",
    )
    soak_p.add_argument(
        "--out", default="CHAOS_TRACE.json", metavar="FILE",
        help="fault trace / report path (default: CHAOS_TRACE.json)",
    )
    soak_p.set_defaults(func=_cmd_chaos_soak)

    submit_p = sub.add_parser(
        "submit", help="submit one experiment to a running server"
    )
    submit_p.add_argument("experiment", help="experiment name (see `list`)")
    submit_p.add_argument("--scale", choices=sorted(SCALES), default="quick",
                          help="scale profile (default: quick)")
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=8377)
    submit_p.add_argument(
        "--params", metavar="JSON", default=None,
        help='plan() overrides, e.g. \'{"policies": ["thp", "ca"]}\'',
    )
    submit_p.add_argument(
        "--stream", action="store_true",
        help="stream NDJSON progress events instead of waiting silently",
    )
    submit_p.add_argument(
        "--json", metavar="FILE", default=None,
        help="also save the full result payload as JSON",
    )
    submit_p.set_defaults(func=_cmd_submit)

    serve_bench_p = sub.add_parser(
        "bench-serve",
        help="load-test the serve layer: cold coalescing + warm latency",
    )
    serve_bench_p.add_argument(
        "--scale", choices=sorted(SCALES), default="quick",
        help="scale profile (default: quick)",
    )
    serve_bench_p.add_argument(
        "--experiment", default="fig11",
        help="experiment each client requests (default: fig11)",
    )
    serve_bench_p.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="concurrent clients (default: 8)",
    )
    serve_bench_p.add_argument(
        "--warm-rounds", type=int, default=5, metavar="N",
        help="warm requests per client (default: 5)",
    )
    serve_bench_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="server worker count (default: 2)",
    )
    serve_bench_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="scratch cache directory — cleared before the cold phase "
             "(default: a private temp dir)",
    )
    serve_bench_p.add_argument(
        "--out", default="BENCH_serve.json", metavar="FILE",
        help="JSON report path (default: BENCH_serve.json)",
    )
    serve_bench_p.add_argument(
        "--min-warm-speedup", type=float, default=0.0, metavar="X",
        help="fail unless warm p50 beats cold p50 by at least X times",
    )
    serve_bench_p.add_argument(
        "--max-warm-p50-ms", type=float, default=0.0, metavar="MS",
        help="fail if warm p50 latency exceeds MS milliseconds",
    )
    serve_bench_p.set_defaults(func=_cmd_bench_serve)

    sweep_p = sub.add_parser(
        "sweep",
        help="expand a policy x scheme x workload grid and report its "
             "Pareto frontier (locally or via a running server)",
    )
    sweep_p.add_argument(
        "--policies", default="thp,ca", metavar="LIST",
        help="comma-separated policy axis (default: thp,ca)",
    )
    sweep_p.add_argument(
        "--schemes", default="paging,spot,vrmm,ds", metavar="LIST",
        help="comma-separated scheme axis (default: paging,spot,vrmm,ds)",
    )
    sweep_p.add_argument(
        "--workloads", default="svm,pagerank,hashjoin", metavar="LIST",
        help="comma-separated workload axis (default: svm,pagerank,hashjoin)",
    )
    sweep_p.add_argument(
        "--scale", choices=sorted(SCALES), default="quick",
        help="scale profile (default: quick)",
    )
    sweep_p.add_argument(
        "--trace-len", type=int, default=50_000, metavar="N",
        help="simulated accesses per grid point (default: 50000)",
    )
    sweep_p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="placement-run seed (default: 0)",
    )
    sweep_p.add_argument(
        "--hog", type=float, default=0.0, metavar="F",
        help="memory-hog pressure fraction in [0,1) (default: 0)",
    )
    sweep_p.add_argument(
        "--exclude", action="append", default=None, metavar="CLAUSE",
        help="drop grid points matching an axis=value[,axis=value] "
             "conjunction (repeatable)",
    )
    sweep_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for local cell fan-out (default: 1)",
    )
    sweep_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="run cache location (default: $REPRO_CACHE_DIR or "
             ".repro-cache)",
    )
    sweep_p.add_argument(
        "--no-cache", action="store_true",
        help="compute every cell, skip cache reads and writes",
    )
    sweep_p.add_argument(
        "--cache-url", metavar="URL", default=None,
        help="shared read-through cache tier (a `repro serve` base URL)",
    )
    sweep_p.add_argument(
        "--submit", action="store_true",
        help="POST the sweep to a running server instead of running "
             "locally",
    )
    sweep_p.add_argument("--host", default="127.0.0.1",
                         help="server address for --submit")
    sweep_p.add_argument("--port", type=int, default=8377,
                         help="server port for --submit")
    sweep_p.add_argument(
        "--stream", action="store_true",
        help="with --submit: stream per-cell NDJSON events",
    )
    sweep_p.add_argument(
        "--json", metavar="FILE", default=None,
        help="also save the full sweep payload as JSON",
    )
    sweep_p.add_argument(
        "--max-computed", type=int, default=None, metavar="N",
        help="fail if more than N cells were computed (CI gate; 0 "
             "asserts a fully-warm repeat)",
    )
    sweep_p.add_argument(
        "--min-frontier", type=int, default=None, metavar="N",
        help="fail unless the Pareto frontier has at least N points "
             "(CI gate)",
    )
    add_chaos_flags(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    cache_p = sub.add_parser(
        "cache", help="inspect or prune the on-disk run cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    stats_p = cache_sub.add_parser("stats", help="entry count and size")
    stats_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache location (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    stats_p.add_argument(
        "--cache-url", metavar="URL", default=None,
        help="shared cache tier whose session counters to surface",
    )
    stats_p.set_defaults(func=_cmd_cache_stats)
    prune_p = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries down to a budget"
    )
    prune_p.add_argument(
        "--max-bytes", type=parse_size, required=True, metavar="SIZE",
        help="target total size, e.g. 500000000, 500M or 2G",
    )
    prune_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache location (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    prune_p.set_defaults(func=_cmd_cache_prune)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
