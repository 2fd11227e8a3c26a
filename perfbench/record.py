"""Record the benchmark's reference data.

Usage, from the root of a checkout::

    python3 perfbench/record.py digests     # per-op digests, seeds 0 and 1
    python3 perfbench/record.py breakdown   # traced pass of each workload, seed 0
    python3 perfbench/record.py suite       # traced serial quick suite, no cache

``digests`` writes ``digests.json``, which ``run.py`` checks every op
against.  Seed 0 is the benchmark's recorded seed and seed 1 the
held-out one.  Re-record only when a change is meant to alter simulated
output.

``breakdown`` and ``suite`` update their sections of ``layers.json``.
That file also holds the hand-written map from each layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

LAYERS = os.path.join(HERE, "layers.json")
RECORDED_SEEDS = (0, 1)


def record_digests() -> None:
    out: dict = {}
    for name in cases.WORKLOADS:
        for seed in RECORDED_SEEDS:
            case = cases.make(name, seed)
            case.setup()
            out.setdefault(name, {})[str(seed)] = {
                op.name: case.digest(op.run()) for op in case.ops()
            }
            print(f"recorded {name} seed {seed}", flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _ranked(shares: dict) -> dict:
    return dict(sorted(((k, v) for k, v in shares.items() if v), key=lambda kv: -kv[1]))


def _breakdown(metrics: dict) -> dict:
    """Layer metrics plus each self time's share of the traced wall time,
    per span and summed per layer (the span name's first component)."""
    wall = metrics["traced_wall_s"]
    shares = {
        name[:-2]: value / wall
        for name, value in metrics.items()
        if name.endswith("_s") and name != "traced_wall_s"
    }
    layers: dict[str, float] = {}
    for span, share in shares.items():
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + share
    return {
        "metrics": metrics,
        "share_by_layer": _ranked(layers),
        "share_by_span": _ranked(shares),
    }


def record_breakdown() -> dict:
    out = {}
    for name in cases.WORKLOADS:
        case = cases.make(name, RECORDED_SEEDS[0])
        result = run.run(case, 0.0, True, run.load_expected(name, RECORDED_SEEDS[0]))
        if not result["correct"]:
            raise SystemExit(f"{name}: traced pass failed")
        out[name] = _breakdown({k: m["value"] for k, m in result["metrics"].items()})
        print(f"traced {name}", flush=True)
    return {"seed": RECORDED_SEEDS[0], "workloads": out}


def record_suite() -> dict:
    from repro.cli import suite_plans
    from repro.sim.config import QUICK_SCALE
    from repro.sim.jobs import Executor, run_plans

    plans = [plan for _, _, plan in suite_plans(QUICK_SCALE)]
    tracer = tracing.Tracer()
    with Executor(jobs=1, cache=None) as executor, tracer:
        start = time.perf_counter()
        run_plans(plans, executor)
        wall = time.perf_counter() - start
    metrics = tracer.layer_metrics(wall, wall)
    del metrics["trace_overhead"]  # no untraced suite run to compare with
    return {"scale": "quick", "jobs": 1, "cache": None, **_breakdown(metrics)}


def main(argv: list[str]) -> int:
    if argv not in (["digests"], ["breakdown"], ["suite"]):
        print(__doc__, file=sys.stderr)
        return 2
    if argv == ["digests"]:
        record_digests()
        return 0
    with open(LAYERS) as fh:
        layers = json.load(fh)
    if argv == ["breakdown"]:
        layers["breakdown"] = record_breakdown()
    else:
        layers["quick_suite"] = record_suite()
    with open(LAYERS, "w") as fh:
        json.dump(layers, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
