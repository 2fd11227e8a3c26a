"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload native_grid --seed 0 --seconds 30 --trace 0

The timed region repeats whole passes of the workload's ops (see
``cases.py``) until ``--seconds`` would be exceeded, after one complete
pass at least.  Every op's output is digested and checked: against the
digest recorded for that seed in ``digests.json`` when there is one,
and otherwise against the first pass of the same run.  An op that
raises or mismatches counts as failed, and any failure makes the run
exit 1.

End-to-end metrics (``--trace 0``):

- ``wall_s``: host seconds of one pass, as the sum over ops of each
  op's lower median time across the passes run (with two samples,
  the faster: interference from other tenants only ever slows an op);
- ``setup_s``: seconds to import the program plus the median of several
  untimed state builds;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run times one untraced pass, then one traced
pass with every layer hook of ``tracing.py`` installed, and prints the
per-layer self times and counters instead; the spans are written to
``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name in ("hw.miss_rate", "trace_overhead"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(case, seconds: float, expected: dict, single_pass: bool = False):
    """Time passes of ``case``'s ops; returns ``(op_times, attempted,
    failed)``.  Ops run until the next one would end past ``seconds``,
    but the first pass always completes."""
    clock = time.perf_counter
    times: dict[str, list[float]] = defaultdict(list)
    seen: dict[str, str] = {}
    attempted = failed = 0
    start = clock()
    first = True
    while True:
        for op in case.ops():
            if not first and clock() - start + statistics.median(times[op.name]) > seconds:
                return times, attempted, failed
            attempted += 1
            # Start every op from a clean heap, so cyclic garbage the last
            # op left (whole retired machines) is neither collected on
            # this op's clock nor still resident at this op's peak.
            gc.collect()
            try:
                t = clock()
                out = op.run()
                elapsed = clock() - t
                digest = case.digest(out)
            except Exception:  # an op that raises is a failed op
                traceback.print_exc()
                return times, attempted, failed + 1
            times[op.name].append(elapsed)
            want = expected.get(op.name) or seen.setdefault(op.name, digest)
            if digest != want:
                print(f"digest mismatch: {case.name} {op.name}", file=sys.stderr)
                failed += 1
        first = False
        if single_pass:
            return times, attempted, failed


def pass_seconds(times: dict[str, list[float]]) -> float:
    """One pass's host time: the sum of per-op lower medians."""
    return sum(statistics.median_low(ts) for ts in times.values())


def setup(case) -> float:
    """Median seconds of ``case.setup_repeats`` state builds, which must
    all produce the same state."""
    seconds, digests = [], set()
    for _ in range(case.setup_repeats):
        t = time.perf_counter()
        digests.add(case.setup())
        seconds.append(time.perf_counter() - t)
    if len(digests) != 1:
        raise AssertionError(f"{case.name}: set-up is not deterministic")
    return statistics.median(seconds)


def run(case, seconds: float, trace: bool, expected: dict,
        import_s: float = 0.0, spans_path: str | None = None) -> dict:
    """Set up, measure and return the result object the CLI prints."""
    import tracing

    if tracing.installed():
        raise RuntimeError(f"layer hooks already installed: {tracing.installed()}")
    setup_s = import_s + setup(case)
    times, attempted, failed = measure(case, seconds, expected, single_pass=trace)
    if trace:
        if tracing.installed():
            raise RuntimeError("untraced pass ran with layer hooks installed")
        untraced_s = pass_seconds(times)
        tracer = tracing.Tracer()
        with tracer:
            traced, n, bad = measure(case, seconds, expected, single_pass=True)
        attempted, failed = attempted + n, failed + bad
        metrics = tracer.layer_metrics(pass_seconds(traced), untraced_s)
        units = {name: layer_unit(name) for name in metrics}
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = {
            "wall_s": pass_seconds(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def load_expected(workload: str, seed: int) -> dict:
    """Recorded per-op digests for ``(workload, seed)`` (may be empty)."""
    try:
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return {}
    return recorded.get(workload, {}).get(str(seed), {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import cases

    try:
        case = cases.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        spans = os.path.join(
            ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json"
        )
    result = run(case, args.seconds, bool(args.trace),
                 load_expected(args.workload, args.seed), import_s, spans)
    failed_frac = result["failed"] / result["attempted"]
    print(f"{args.workload} seed={args.seed}: attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={failed_frac:g}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
