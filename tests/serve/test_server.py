"""End-to-end server tests over real sockets.

Each test boots a :class:`ReproServer` over a scratch run cache on an
ephemeral port inside ``asyncio.run`` and talks to it with
:mod:`http.client` via ``asyncio.to_thread``, so the full
HTTP-parse -> route -> respond path is exercised.
"""

import asyncio
import http.client
import json
import tempfile

import pytest

from repro.cli import build_parser
from repro.serve.server import ReproServer, build_server
from repro.sim.cache import RunCache


def request(port: int, method: str, path: str,
            body: bytes | None = None) -> tuple[int, dict, bytes]:
    """One request; ``(status, lower-cased headers, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        return resp.status, headers, resp.read()
    finally:
        conn.close()


def metrics_text(port: int) -> str:
    status, _, body = request(port, "GET", "/metrics")
    assert status == 200
    return body.decode()


async def _with_server(body, **kwargs):
    with tempfile.TemporaryDirectory(prefix="repro-serve-test-") as root:
        server = ReproServer(RunCache(root), port=0, **kwargs)
        await server.start()
        try:
            await body(server)
        finally:
            await server.stop()


def run(body, **kwargs):
    """Run ``await body(server)`` against a live server on a scratch
    cache; ``kwargs`` go to :class:`ReproServer`."""
    asyncio.run(_with_server(body, **kwargs))


class TestEndpoints:
    def test_healthz(self):
        async def body(server):
            status, _, raw = await asyncio.to_thread(
                request, server.port, "GET", "/healthz"
            )
            assert status == 200
            health = json.loads(raw)
            assert set(health) == {"status", "uptime_seconds"}
            assert health["status"] == "ok"

        run(body)

    def test_unknown_route_404(self):
        async def body(server):
            status, _, _ = await asyncio.to_thread(
                request, server.port, "GET", "/v1/nope"
            )
            assert status == 404

        run(body)

    @pytest.mark.parametrize("method,path", [
        ("POST", "/v1/run"),
        ("GET", "/v1/experiments"),
        ("POST", "/v1/sweep"),
        ("GET", "/v1/sweep/abc"),
        ("GET", "/explorer"),
    ])
    def test_retired_job_routes_404(self, method, path):
        async def body(server):
            status, _, _ = await asyncio.to_thread(
                request, server.port, method, path, b"{}"
            )
            assert status == 404

        run(body)

    def test_metrics_exposition(self):
        async def body(server):
            status, _, _ = await asyncio.to_thread(
                request, server.port, "GET", f"/v1/cache/{'ab' * 32}"
            )
            assert status == 404
            text = await asyncio.to_thread(metrics_text, server.port)
            assert "# TYPE repro_requests_total counter" in text
            # Per-key paths collapse to one label value.
            assert 'repro_requests_total{endpoint="/v1/cache"} 1' in text
            assert ('repro_cache_tier_requests_total{outcome="get_miss"} 1'
                    in text)
            assert "repro_request_seconds_bucket" in text
            # No injector: the chaos counters are absent entirely.
            assert "repro_chaos_faults_total" not in text

        run(body)


class TestBuildServer:
    def test_cli_args_build_a_tier_over_the_cache_dir(self, tmp_path):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--cache-dir", str(tmp_path),
        ])
        server = build_server(args)
        assert server.cache.root == tmp_path
        assert server.injector is None
        assert (server.host, server.port) == ("127.0.0.1", 0)

    def test_chaos_plan_arms_the_serve_sites(self, tmp_path):
        args = build_parser().parse_args([
            "serve", "--cache-dir", str(tmp_path),
            "--chaos-plan", "serve.accept=0.5", "--chaos-seed", "3",
        ])
        server = build_server(args)
        assert server.injector is not None
        assert server.injector.plan.seed == 3
        assert "repro_chaos_faults_total" in server.registry.metrics
