"""End-to-end tests for the federated cache tier.

One real :class:`ReproServer` (ephemeral port, scratch cache) plays
the shared tier; :class:`HttpCacheTier` clients and tiered
:class:`RunCache` instances talk to it over real sockets, so the full
path — key validation, RPT1 body validation, single-writer promotion,
read-through local fill, executor-level federation — is exercised
exactly as two worker boxes would drive it.
"""

from __future__ import annotations

import http.client
import pickle

import numpy as np
import pytest

from repro.serve.server import ServerThread
from repro.sim import transport
from repro.sim.cache import MISS, HttpCacheTier, RunCache
from repro.sim.jobs import Executor, cell

SQ = "tests.sim.test_jobs:_square"

KEY = "ab" * 32  # 64 lowercase hex chars, like a real digest


@pytest.fixture(scope="module")
def tier_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("tier")
    with ServerThread(cache=RunCache(root)) as server:
        yield server


def _raw(server, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestEndpoint:
    def test_get_missing_key_is_404(self, tier_server):
        status, _ = _raw(tier_server, "GET", f"/v1/cache/{'00' * 32}")
        assert status == 404

    def test_malformed_keys_rejected(self, tier_server):
        for bad in ("short", "Z" * 64, "AB" * 32, "../../etc/passwd"):
            status, _ = _raw(tier_server, "GET", f"/v1/cache/{bad}")
            assert status == 400, bad

    def test_single_writer_promotion(self, tier_server):
        first = transport.dumps({"winner": 1})
        second = transport.dumps({"loser": 2})
        status, _ = _raw(tier_server, "PUT", f"/v1/cache/{KEY}", first)
        assert status == 201  # stored
        status, _ = _raw(tier_server, "PUT", f"/v1/cache/{KEY}", second)
        assert status == 200  # exists: first writer's copy kept
        status, body = _raw(tier_server, "GET", f"/v1/cache/{KEY}")
        assert status == 200
        assert body == first

    def test_malformed_put_is_rejected_and_leaves_the_key_free(
        self, tier_server
    ):
        key = "9f" * 32
        rejected = tier_server.m_cache_tier.get("put_rejected")
        good = transport.dumps({"ok": True})
        bad_bodies = (
            pickle.dumps({"ok": True}),  # a bare pickle, not RPT1
            b"",
            good[:40],  # truncated header
            good[:-1],  # frame runs past the end
            good + b"\0",  # trailing bytes
        )
        for bad in bad_bodies:
            status, body = _raw(tier_server, "PUT", f"/v1/cache/{key}", bad)
            assert status == 400, bad[:16]
            assert b"RPT1" in body
        # No bad body claimed the key: a well-formed write still wins.
        status, _ = _raw(tier_server, "GET", f"/v1/cache/{key}")
        assert status == 404
        status, _ = _raw(tier_server, "PUT", f"/v1/cache/{key}", good)
        assert status == 201
        status, body = _raw(tier_server, "GET", f"/v1/cache/{key}")
        assert body == good
        assert (tier_server.m_cache_tier.get("put_rejected")
                == rejected + len(bad_bodies))

    def test_method_not_allowed(self, tier_server):
        status, _ = _raw(tier_server, "POST", f"/v1/cache/{'cd' * 32}")
        assert status == 405


class TestHttpCacheTier:
    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            HttpCacheTier("ftp://host:1/")
        with pytest.raises(ValueError):
            HttpCacheTier("http://")

    def test_get_put_roundtrip(self, tier_server):
        tier = HttpCacheTier(f"http://127.0.0.1:{tier_server.port}")
        key = "ee" * 32
        blob = transport.dumps([1, 2, 3])
        assert tier.get(key) is None  # miss
        assert tier.put(key, blob) == "stored"
        assert tier.put(key, blob) == "exists"
        assert tier.get(key) == blob
        assert tier.errors == 0

    def test_unreachable_tier_degrades_quietly(self):
        tier = HttpCacheTier("http://127.0.0.1:9", timeout=0.2)
        assert tier.get("ff" * 32) is None
        assert tier.put("ff" * 32, b"x") is None
        assert tier.errors == 2


class TestFederatedRunCache:
    def test_read_through_fills_local(self, tier_server, tmp_path):
        url = f"http://127.0.0.1:{tier_server.port}"
        a = RunCache(tmp_path / "a", tier=HttpCacheTier(url))
        b = RunCache(tmp_path / "b", tier=HttpCacheTier(url))
        key = "0a" * 32
        a.put(key, {"v": 42})  # local store + write-through publish
        assert a.tier_stores == 1
        # b has never seen the key locally: the tier serves it...
        assert b.get(key) == {"v": 42}
        assert b.tier_hits == 1
        # ...and the local fill makes the next read purely local.
        assert b.get(key) == {"v": 42}
        assert b.tier.gets == 1

    def test_tier_miss_is_a_plain_miss(self, tier_server, tmp_path):
        url = f"http://127.0.0.1:{tier_server.port}"
        c = RunCache(tmp_path, tier=HttpCacheTier(url))
        assert c.get("0b" * 32) is MISS
        assert c.tier_misses == 1

    def test_two_workers_share_compute(self, tier_server, tmp_path):
        # Worker A computes; worker B (fresh L1, same tier) only reads.
        url = f"http://127.0.0.1:{tier_server.port}"
        cells = [cell(SQ, x=i) for i in (21, 22)]
        a = Executor(cache=RunCache(tmp_path / "wa", tier=HttpCacheTier(url)))
        assert a.run(cells) == [441, 484]
        assert a.stats.computed == 2
        b = Executor(cache=RunCache(tmp_path / "wb", tier=HttpCacheTier(url)))
        assert b.run(cells) == [441, 484]
        assert b.stats.computed == 0
        assert b.stats.cache_hits == 2
        assert b.cache.tier_hits == 2


class TestFramedBlobsOnTheWire:
    """Framed RPT1 blobs travel through the tier byte for byte."""

    def _value(self):
        return {"col": np.repeat(np.arange(8, dtype=np.uint64), 2_048)}

    def test_framed_bytes_travel_verbatim(self, tier_server):
        tier = HttpCacheTier(f"http://127.0.0.1:{tier_server.port}")
        key = "1a" * 32
        blob = transport.dumps(self._value())
        assert tier.put(key, blob) == "stored"
        assert tier.get(key) == blob
        status, body = _raw(tier_server, "GET", f"/v1/cache/{key}")
        assert status == 200
        assert body == blob

    def test_tier_client_counts_bytes_on_wire(self, tier_server):
        tier = HttpCacheTier(f"http://127.0.0.1:{tier_server.port}")
        key = "4d" * 32
        blob = transport.dumps(self._value())
        tier.put(key, blob)
        assert tier.bytes_sent == len(blob)
        assert tier.get(key) == blob
        assert tier.bytes_received == len(blob)

    def test_federated_round_trip_of_a_framed_numpy_value(
        self, tier_server, tmp_path
    ):
        url = f"http://127.0.0.1:{tier_server.port}"
        a = RunCache(tmp_path / "a", tier=HttpCacheTier(url))
        b = RunCache(tmp_path / "b", tier=HttpCacheTier(url))
        key = "5e" * 32
        value = self._value()
        a.put(key, value)
        out = b.get(key)
        assert out is not MISS
        assert np.array_equal(out["col"], value["col"])
        # The wire carried the framed (compressed) blob, not logical
        # bytes: on-wire size beats the raw pickle by a wide margin.
        raw_len = len(pickle.dumps(value,
                                   protocol=pickle.HIGHEST_PROTOCOL))
        assert b.tier.bytes_received < raw_len / 2

