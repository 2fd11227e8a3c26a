"""Serve-layer fault injection over real sockets: dropped accepts and
stalled PUT bodies on the cache tier, and the chaos counters surfaced
on ``/metrics``.
"""

import asyncio
import json

from repro.chaos import FaultInjector, FaultPlan
from repro.sim import transport
from repro.sim.cache import MISS, HttpCacheTier, RunCache
from tests.serve.test_server import metrics_text, request, run

KEY = "c3" * 32


def _seed_where(site, p, fired, clean, limit=1000):
    """A seed whose hash decisions fire exactly on ``fired`` tokens.

    Searching is deterministic — the decisions are pure functions of
    the seed — so the test pins real behaviour, not luck.
    """
    for seed in range(limit):
        injector = FaultInjector(FaultPlan(((site, p),), seed=seed))
        if all(injector.decide(site, t) for t in fired) and \
                not any(injector.decide(site, t) for t in clean):
            return seed
    raise AssertionError(f"no seed under {limit} fires exactly {fired}")


def _tier(server) -> HttpCacheTier:
    return HttpCacheTier(f"http://127.0.0.1:{server.port}", timeout=10)


class TestAcceptFaults:
    def test_dropped_connection_is_retried_to_success(self, tmp_path):
        # conn0 (the first GET) is dropped; conn1 (the retry) and conn2
        # (the metrics scrape) get through.
        seed = _seed_where("serve.accept", 0.5,
                           fired=["conn0"],
                           clean=["conn1", "conn2", "conn3"])
        injector = FaultInjector(
            FaultPlan((("serve.accept", 0.5),), seed=seed)
        )

        async def body(server):
            server.cache.write_blob(KEY, transport.dumps({"v": 7}))
            local = RunCache(tmp_path / "l1", tier=_tier(server))
            # The dropped accept reads as a plain miss, never an error...
            assert await asyncio.to_thread(local.get, KEY) is MISS
            assert local.tier_misses == 1
            assert local.tier.errors == 1
            # ...and the next lookup reaches the tier.
            assert await asyncio.to_thread(local.get, KEY) == {"v": 7}
            assert local.tier_hits == 1
            [record] = injector.records
            assert record.site == "serve.accept"
            assert record.token == "conn0"
            assert record.recovered == "dropped_for_retry"
            metrics = await asyncio.to_thread(metrics_text, server.port)
            assert "repro_connections_dropped_total 1" in metrics
            assert ('repro_chaos_faults_total{site="serve.accept"} 1'
                    in metrics)
            assert ('repro_chaos_recovered_total{site="serve.accept"} 1'
                    in metrics)

        run(body, injector=injector)


class TestBodyFaults:
    def test_stalled_body_answers_408_and_retries_give_up_cleanly(
        self, tmp_path
    ):
        injector = FaultInjector(FaultPlan((("serve.body", 1.0),)))
        blob = transport.dumps([1, 2, 3])

        async def body(server):
            status, _, raw = await asyncio.to_thread(
                request, server.port, "PUT", f"/v1/cache/{KEY}", blob
            )
            assert status == 408
            assert "timed out" in json.loads(raw)["error"]
            # A write-through store keeps the result locally and counts
            # the tier error: a definite answer, never a hang.
            local = RunCache(tmp_path / "l1", tier=_tier(server))
            await asyncio.to_thread(local.put, KEY, [1, 2, 3])
            await asyncio.to_thread(local.put, KEY, [1, 2, 3])
            assert local.tier_errors == 2
            assert local.tier.errors == 2
            assert RunCache(tmp_path / "l1").get(KEY) == [1, 2, 3]
            # No stalled PUT claimed the key on the tier.
            assert server.cache.read_blob(KEY) is None
            # GETs carry no body, so the fault site stays clear and the
            # server keeps answering health and metrics.
            status, _, _ = await asyncio.to_thread(
                request, server.port, "GET", "/healthz"
            )
            assert status == 200
            metrics = await asyncio.to_thread(metrics_text, server.port)
            assert 'repro_responses_total{code="408"} 3' in metrics
            assert ('repro_chaos_faults_total{site="serve.body"} 3'
                    in metrics)
            assert all(r.recovered == "timeout_408"
                       for r in injector.records)

        run(body, injector=injector)


class TestChaosMetricsSurface:
    def test_no_chaos_counters_without_an_injector(self):
        async def body(server):
            metrics = await asyncio.to_thread(metrics_text, server.port)
            assert "repro_connections_dropped_total 0" in metrics
            assert "repro_chaos_faults_total" not in metrics
            assert "repro_chaos_recovered_total" not in metrics

        run(body)
