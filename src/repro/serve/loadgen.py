"""Load generator for the serve layer: ``python -m repro bench-serve``.

Boots a real server (ephemeral port, scratch cache) in a background
thread, then drives it with N concurrent stdlib clients through two
phases:

1. *cold / coalescing* — N identical requests land while the cache is
   empty.  They must coalesce onto **one** executor invocation
   (verified via the ``/metrics`` coalesced-join and job counters) and
   every client must receive byte-identical bodies.
2. *warm* — the same request repeated for several rounds against the
   now-populated cache, measuring per-request latency (p50/p95/p99)
   and throughput.
3. *sweep* — every client streams an **overlapping** grid through
   ``POST /v1/sweep?stream=1``: all grids share a core (policy,
   workload) block and differ in one rotating extra policy, so most
   of the fleet's point-cell references must be served by dedup +
   coalescing + cache rather than computed.  The phase reports the
   dedup ratio and the stream-completion p50/p95.
4. *tier* — the largest entry the earlier phases cached is pulled
   back through the ``/v1/cache`` federation endpoint, recording the
   framed RPT1 bytes it put on the wire against the entry's
   raw-pickle equivalent.

The report (``BENCH_serve.json``) carries the headline numbers CI
gates on: zero failed requests, coalescing effectiveness,
warm-over-cold speedup, and sweep dedup.
"""

from __future__ import annotations

import asyncio
import math
import platform
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.sim.cache import RunCache

#: Defaults matching the acceptance gate: 8 concurrent identical
#: quick-scale requests -> 1 executor invocation.
DEFAULT_CLIENTS = 8
DEFAULT_WARM_ROUNDS = 5
DEFAULT_EXPERIMENT = "fig11"


class ServerThread:
    """A live ``ReproServer`` on its own event loop + thread."""

    def __init__(self, **server_kwargs):
        self._ready = threading.Event()
        self._server: ReproServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, kwargs=server_kwargs,
            name="repro-serve", daemon=True,
        )

    def _main(self, **server_kwargs) -> None:
        async def amain():
            server = ReproServer(port=0, **server_kwargs)
            await server.start()
            self._server = server
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.stop()

        try:
            asyncio.run(amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._error = exc
            self._ready.set()

    def __enter__(self) -> ReproServer:
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._server is None:
            raise RuntimeError(
                f"server failed to start: {self._error!r}"
            ) from self._error
        return self._server

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._server is not None:
            asyncio.run_coroutine_threadsafe(
                self._server.stop(), self._loop
            )
        self._thread.join(timeout=30)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of raw observations (exact, not bucketed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _latency_summary(latencies_s: list[float]) -> dict:
    return {
        "requests": len(latencies_s),
        "p50_ms": round(percentile(latencies_s, 0.50) * 1000, 3),
        "p95_ms": round(percentile(latencies_s, 0.95) * 1000, 3),
        "p99_ms": round(percentile(latencies_s, 0.99) * 1000, 3),
        "mean_ms": round(
            sum(latencies_s) / len(latencies_s) * 1000, 3
        ) if latencies_s else 0.0,
    }


def _fire(client: ServeClient, experiment: str, scale: str) -> dict:
    started = time.perf_counter()
    resp = client.run(experiment, scale=scale)
    return {
        "status": resp.status,
        "latency_s": time.perf_counter() - started,
        "body": resp.body,
        "coalesced": resp.coalesced,
    }


#: Extra policies rotated across sweep-phase clients: every grid
#: shares the (thp, ca) core, so overlap — not luck — drives dedup.
SWEEP_EXTRA_POLICIES = ("eager", "ingens")
SWEEP_TRACE_LEN = 10_000


def _sweep_spec_for(i: int, scale_name: str) -> dict:
    return {
        "policies": ["thp", "ca",
                     SWEEP_EXTRA_POLICIES[i % len(SWEEP_EXTRA_POLICIES)]],
        "workloads": ["svm"],
        "scale": scale_name,
        "trace_len": SWEEP_TRACE_LEN,
    }


def _tier_phase(server, cache_root: Path) -> dict:
    """Pull the largest cached entry over the ``/v1/cache`` tier;
    returns its bytes on the wire against its raw-pickle size."""
    import pickle

    from repro.sim.cache import HttpCacheTier, RunCache

    entries = sorted(
        cache_root.glob("*/*.pkl"),
        key=lambda p: p.stat().st_size, reverse=True,
    )
    if not entries:
        return {"entries": 0}
    key = entries[0].stem

    tier = HttpCacheTier(f"http://127.0.0.1:{server.port}")
    blob = tier.get(key)
    if blob is None:
        return {"entries": len(entries), "error": "tier get missed"}
    value = RunCache.decode_blob(blob)
    raw_equiv = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    return {
        "entries": len(entries),
        "key": key,
        "bytes_on_wire": len(blob),
        "raw_equivalent_bytes": raw_equiv,
        "wire_reduction": round(raw_equiv / max(len(blob), 1), 2),
        "client_bytes_received": tier.bytes_received,
    }


def _fire_sweep(client: ServeClient, spec: dict) -> dict:
    """Stream one sweep; returns latency + stream shape + result body."""
    started = time.perf_counter()
    cells = 0
    result = None
    error = None
    try:
        for event in client.iter_sweep_stream(spec):
            if event.get("event") == "sweep-cell":
                cells += 1
            elif event.get("event") == "result":
                result = event["data"]
    except Exception as exc:  # noqa: BLE001 - report, don't abort the bench
        error = f"{type(exc).__name__}: {exc}"
    import json as _json

    return {
        "latency_s": time.perf_counter() - started,
        "cell_events": cells,
        "points": result["points"] if result else 0,
        "frontier_size": result["frontier_size"] if result else 0,
        "body": _json.dumps(
            result, sort_keys=True, separators=(",", ":")
        ).encode() if result else b"",
        "error": error,
    }


def run_serve_bench(
    scale_name: str = "quick",
    experiment: str = DEFAULT_EXPERIMENT,
    clients: int = DEFAULT_CLIENTS,
    warm_rounds: int = DEFAULT_WARM_ROUNDS,
    cache_root: str | Path | None = None,
    workers: int = 2,
) -> dict:
    """Run both phases against a private server; returns the report."""
    own_tmp = cache_root is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-serve-bench-"))
        if own_tmp else Path(cache_root)
    )
    started = time.time()
    try:
        RunCache(root).clear()
        with ServerThread(
            cache=RunCache(root), workers=workers,
            queue_depth=max(16, clients * 2),
        ) as server:
            client = ServeClient(port=server.port)
            client.healthz()  # fail fast if the socket is dead

            # Phase 1: cold, all clients at once -> one executor run.
            with ThreadPoolExecutor(max_workers=clients) as pool:
                cold = list(pool.map(
                    lambda _: _fire(client, experiment, scale_name),
                    range(clients),
                ))
            cold_bodies = {r["body"] for r in cold}
            cold_failed = sum(1 for r in cold if r["status"] != 200)
            jobs_done = client.metric(
                "repro_jobs_total", label='status="done"'
            )
            coalesced_joins = client.metric("repro_coalesced_joins_total")
            cells_computed = client.metric("repro_cells_computed")

            # Phase 2: warm, each client loops rounds sequentially.
            def warm_client(_i: int) -> list[dict]:
                return [
                    _fire(client, experiment, scale_name)
                    for _ in range(warm_rounds)
                ]

            warm_started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                warm = [
                    r for rs in pool.map(warm_client, range(clients))
                    for r in rs
                ]
            warm_wall = time.perf_counter() - warm_started
            warm_failed = sum(1 for r in warm if r["status"] != 200)
            warm_bodies = {r["body"] for r in warm}

            # Phase 3: overlapping sweep grids from every client.
            sweep_started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                sweeps = list(pool.map(
                    lambda i: _fire_sweep(
                        client, _sweep_spec_for(i, scale_name)
                    ),
                    range(clients),
                ))
            sweep_wall = time.perf_counter() - sweep_started
            sweep_failed = sum(1 for r in sweeps if r["error"] or not r["body"])
            sweep_points = client.metric("repro_sweep_points_total")
            sweep_computed = client.metric(
                "repro_sweep_cells_computed_total"
            )
            # Distinct specs coalesce and repeat via the cache, so the
            # denominator is every point-cell reference the fleet
            # *would* have cost without sharing (2 cells per point).
            sweep_refs = 2 * sum(r["points"] for r in sweeps)
            sweep_bodies_by_spec: dict[str, set] = {}
            for i, r in enumerate(sweeps):
                spec_key = str(sorted(_sweep_spec_for(i, scale_name).items()))
                sweep_bodies_by_spec.setdefault(spec_key, set()).add(r["body"])

            # Phase 4: federation-tier bytes on the wire.
            tier = _tier_phase(server, root)

            metrics_snapshot = {
                "jobs_done": client.metric(
                    "repro_jobs_total", label='status="done"'
                ),
                "tier_bytes_get": client.metric(
                    "repro_cache_tier_bytes_total",
                    label='direction="get"',
                ),
                "tier_bytes_put": client.metric(
                    "repro_cache_tier_bytes_total",
                    label='direction="put"',
                ),
                "jobs_failed": client.metric(
                    "repro_jobs_total", label='status="failed"'
                ),
                "coalesced_joins": client.metric(
                    "repro_coalesced_joins_total"
                ),
                "queue_rejected": client.metric(
                    "repro_queue_rejected_total"
                ),
                "cells_computed": client.metric("repro_cells_computed"),
                "cells_cached": client.metric("repro_cells_cached"),
                "cache_hit_ratio": client.metric("repro_cache_hit_ratio"),
                "sweeps_done": client.metric(
                    "repro_sweeps_total", label='status="done"'
                ),
                "sweep_coalesced_or_cached": sweep_refs - sweep_computed,
            }
    finally:
        if own_tmp:
            shutil.rmtree(root, ignore_errors=True)

    cold_lat = [r["latency_s"] for r in cold]
    warm_lat = [r["latency_s"] for r in warm]
    sweep_lat = [r["latency_s"] for r in sweeps]
    cold_p50 = percentile(cold_lat, 0.50)
    warm_p50 = percentile(warm_lat, 0.50)
    sweep_dedup_ratio = (
        round(1.0 - sweep_computed / sweep_refs, 4) if sweep_refs else 0.0
    )
    sweep_bodies_identical = all(
        len(bodies) == 1 for bodies in sweep_bodies_by_spec.values()
    )
    coalescing_ok = (
        cold_failed == 0
        and jobs_done == 1
        and coalesced_joins == clients - 1
        and len(cold_bodies) == 1
    )
    return {
        "bench": "serve",
        "scale": scale_name,
        "experiment": experiment,
        "clients": clients,
        "warm_rounds": warm_rounds,
        "workers": workers,
        "python": platform.python_version(),
        "cold": {
            **_latency_summary(cold_lat),
            "wall_s": round(max(cold_lat), 3),
            "failed": cold_failed,
            "unique_bodies": len(cold_bodies),
            "executor_jobs": jobs_done,
            "coalesced_joins": coalesced_joins,
            "cells_computed": cells_computed,
        },
        "warm": {
            **_latency_summary(warm_lat),
            "wall_s": round(warm_wall, 3),
            "failed": warm_failed,
            "unique_bodies": len(warm_bodies),
            "throughput_rps": round(len(warm) / warm_wall, 1)
            if warm_wall > 0 else 0.0,
        },
        "sweep": {
            **_latency_summary(sweep_lat),
            "wall_s": round(sweep_wall, 3),
            "failed": sweep_failed,
            "distinct_specs": len(sweep_bodies_by_spec),
            "points_total": sum(r["points"] for r in sweeps),
            "cell_refs": sweep_refs,
            "cells_computed": sweep_computed,
            "dedup_ratio": sweep_dedup_ratio,
            "bodies_identical_per_spec": sweep_bodies_identical,
            "frontier_nonempty": all(
                r["frontier_size"] > 0 for r in sweeps if r["body"]
            ),
            "metrics_points_total": sweep_points,
        },
        "tier": tier,
        "metrics": metrics_snapshot,
        # Headline numbers the CI smoke gates on.
        "coalescing_ok": coalescing_ok,
        "bodies_identical": len(cold_bodies | warm_bodies) == 1,
        "sweep_ok": (
            sweep_failed == 0 and sweep_bodies_identical
            and sweep_dedup_ratio > 0.5
        ),
        "sweep_dedup_ratio": sweep_dedup_ratio,
        "sweep_stream_p50_ms": round(
            percentile(sweep_lat, 0.50) * 1000, 3
        ),
        "sweep_stream_p95_ms": round(
            percentile(sweep_lat, 0.95) * 1000, 3
        ),
        "failed_requests": cold_failed + warm_failed + sweep_failed,
        "warm_p50_ms": round(warm_p50 * 1000, 3),
        "warm_over_cold": round(cold_p50 / warm_p50, 2)
        if warm_p50 > 0 else 0.0,
        "wall_seconds": round(time.time() - started, 1),
    }
