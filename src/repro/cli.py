"""Command-line interface: regenerate the paper from a shell.

Usage::

    python -m repro list
    python -m repro run fig7 --scale quick
    python -m repro run fig13 fig14 --scale default --jobs 4
    python -m repro suite --scale quick --jobs 8
    python -m repro bench --scale quick --out BENCH_suite.json
    python -m repro bench --scale paper --out BENCH_paper.json
    python -m repro sweep --policies thp,ca --workloads svm,pagerank
    python -m repro cache stats
    python -m repro cache prune --max-bytes 500M

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
import json
import math
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


def run_suite_grid(scale, names, executor) -> tuple[bytes, float]:
    """Run ``names``' plans through ``executor``.

    Returns the canonical JSON bytes of their results (what
    ``results_sha256`` hashes) and the seconds planning and running
    took, canonicalizing excluded.  The caller builds and owns
    ``executor``, so the bench and the recovery tests pick their own
    jobs and cache.
    """
    from repro.experiments.serialize import to_jsonable
    from repro.sim.jobs import run_plans

    started = time.perf_counter()
    entries = suite_plans(scale, names)
    results = run_plans([plan for _, _, plan in entries], executor)
    seconds = time.perf_counter() - started
    payload = {
        key: to_jsonable(result)
        for (_, key, _), result in zip(entries, results)
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blob.encode(), seconds


def make_executor(args):
    """Build the Executor the ``--jobs``/cache flags describe."""
    from repro.sim.cache import RunCache
    from repro.sim.jobs import Executor

    cache = None
    if not getattr(args, "no_cache", False):
        cache = RunCache(getattr(args, "cache_dir", None))
    return Executor(jobs=getattr(args, "jobs", None) or 1, cache=cache)


def _run_experiments(names: list[str], args) -> int:
    from repro.sim.jobs import run_plans

    scale = SCALES[args.scale]
    json_dir = _json_dir(args)
    executor = make_executor(args)
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


#: ``repro bench`` flags that only the suite form reads.
SUITE_BENCH_FLAGS = ("jobs", "experiments", "cache_dir",
                     "min_warm_speedup", "min_cold_speedup")


def _bench_flag_error(args) -> str | None:
    """Why the given flags do not fit the chosen bench form, or None."""
    dests = SUITE_BENCH_FLAGS if args.scale == "paper" else ("fault_steps",)
    wrong = [f"--{dest.replace('_', '-')}" for dest in dests
             if getattr(args, dest) is not None]
    if wrong:
        return f"--scale {args.scale} takes no {', '.join(wrong)}"
    for name in args.experiments or ():
        if name not in EXPERIMENTS:
            return f"unknown experiment {name!r}; try `python -m repro list`"
    return None


def _suite_gate(report, args) -> list[str]:
    """The suite form's failed gates (empty when it passes)."""
    failures = []
    if not report["results_identical"]:
        failures.append("pass results are not byte-identical")
    broken = [name for name, row in report["passes"].items()
              if row["stats"]["pool_failures"]]
    if broken:
        # Such a pass finished on the serial fallback: it timed the
        # wrong program.
        failures.append(f"worker pool broke in {', '.join(broken)}; "
                        f"serial fallback timed instead")
    if args.min_warm_speedup and report["warm_speedup"] < args.min_warm_speedup:
        failures.append(f"warm speedup {report['warm_speedup']}x below gate "
                        f"{args.min_warm_speedup}x")
    if args.min_cold_speedup:
        env = report["env"]
        if not report["parallel_gate_meaningful"]:
            print(f"[skipping --min-cold-speedup {args.min_cold_speedup}x "
                  f"gate: jobs={env['jobs']} on {env['cpus']} cpu(s); "
                  f"parallel-vs-serial needs >=2 of both]")
        elif report["cold_speedup"] < args.min_cold_speedup:
            failures.append(f"cold speedup {report['cold_speedup']}x below "
                            f"gate {args.min_cold_speedup}x")
    return failures


def _cmd_bench(args) -> int:
    from repro.bench import run_paper_bench, run_suite_bench, write_report

    error = _bench_flag_error(args)
    if error:
        print(f"repro bench: {error}", file=sys.stderr)
        return 2
    paper = args.scale == "paper"
    if paper:
        print("=== bench: paper fault cell (ingens/bt) ===")
        report = run_paper_bench(fault_steps=args.fault_steps)
    else:
        print(f"=== bench: suite serial/cold/warm "
              f"(scale={args.scale}, jobs={args.jobs or 'auto'}) ===")
        report = run_suite_bench(
            args.scale,
            jobs=args.jobs,
            experiments=tuple(args.experiments) if args.experiments else None,
            cache_root=args.cache_dir,
        )
    for name, row in report["passes"].items():
        s = row["stats"]
        if paper:
            detail = (f"{s['faults']:,} faults ({s['faults_per_sec']:,.0f}/s) "
                      f"in {s['steps']} of {s['total_steps']} steps")
        else:
            detail = (f"{s['computed']} computed, {s['cache_hits']} cached, "
                      f"{s['deduped']} deduped of {s['submitted']}")
        print(f"{name:>13}: {row['seconds']:.2f}s — {detail}")
    if paper:
        print(f"state sha256: {report['state_sha256']}")
        print(f"in budget ({report['budget_seconds']:.0f}s): "
              f"{report['in_budget']}")
        failures = [] if report["in_budget"] else [
            "the paper fault cell blew its budget"
        ]
    else:
        print(f"results identical across passes: "
              f"{report['results_identical']} "
              f"(sha256 {report['results_sha256']})")
        failures = _suite_gate(report, args)
    out = write_report(report, args.out)
    print(f"[saved {out} in {report['wall_seconds']}s]")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


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
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"size must be finite, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return int(value * factor)


def _cmd_cache_stats(args) -> int:
    from repro.sim.cache import RunCache

    stats = RunCache(args.cache_dir).stats()
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
    from repro.sweep.runner import run_sweep

    try:
        spec = SweepSpec.from_request(_sweep_spec_from_args(args))
    except SweepValidationError as exc:
        print(f"bad sweep: {exc}", file=sys.stderr)
        return 2
    executor = make_executor(args)
    try:
        data, stats = run_sweep(spec, executor)
    finally:
        executor.close()
    print(f"[{stats.seconds:.1f}s: {stats.computed} computed, "
          f"{stats.cache_hits} cached, {stats.deduped} deduped "
          f"of {stats.submitted} cell(s); jobs={executor.jobs}]",
          file=sys.stderr)
    _print_sweep_outcome(data)
    if args.json:
        from pathlib import Path

        out = Path(args.json)
        out.write_text(_json.dumps(data, indent=2, sort_keys=True))
        print(f"[saved {out}]", file=sys.stderr)
    return _sweep_gates(args, data["frontier_size"], stats.computed)


def _cmd_cache_prune(args) -> int:
    from repro.sim.cache import RunCache

    summary = RunCache(args.cache_dir).prune(args.max_bytes)
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

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument("experiment", nargs="+", help="experiment name(s)")
    add_orchestrator_flags(run_p, default_jobs=1)
    run_p.set_defaults(func=_cmd_run)

    suite_p = sub.add_parser("suite", help="run every experiment")
    add_orchestrator_flags(suite_p, default_jobs=os.cpu_count() or 1)
    suite_p.set_defaults(func=_cmd_suite)

    bench_p = sub.add_parser(
        "bench",
        help="time the suite serial/cold/warm, or the paper "
             "fault cell (--scale paper)",
    )
    bench_p.add_argument(
        "--scale", choices=[*sorted(SCALES), "paper"], default="quick",
        help="scale profile (default: quick); 'paper' runs the "
             "face-value fault cell (Ingens on bt) instead of the suite",
    )
    bench_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan-out width for the parallel passes (default: all cores)",
    )
    bench_p.add_argument(
        "--experiments", nargs="*", default=None, metavar="NAME",
        help="subset of experiments to bench (default: the whole suite)",
    )
    bench_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="scratch cache directory — cleared before the cold pass "
             "(default: a private temp dir)",
    )
    bench_p.add_argument(
        "--out", default="BENCH_suite.json", metavar="FILE",
        help="JSON report path (default: BENCH_suite.json)",
    )
    bench_p.add_argument(
        "--min-warm-speedup", type=float, default=None, metavar="X",
        help="fail unless the warm pass beats serial by at least X times",
    )
    bench_p.add_argument(
        "--min-cold-speedup", type=float, default=None, metavar="X",
        help="fail unless the parallel-cold pass beats serial by at "
             "least X times (skipped with a note unless both --jobs and "
             "the CPU count are >= 2)",
    )
    bench_p.add_argument(
        "--fault-steps", type=int, default=None, metavar="N",
        help="cap the paper fault cell at N allocation steps (CI smoke; "
             "default: all steps)",
    )
    bench_p.set_defaults(func=_cmd_bench)

    sweep_p = sub.add_parser(
        "sweep",
        help="expand a policy x scheme x workload grid and report its "
             "Pareto frontier",
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
        help="worker processes for cell fan-out (default: 1)",
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
