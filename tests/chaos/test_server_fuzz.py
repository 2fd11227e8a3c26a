"""Property-based fuzzing of the HTTP front end.

Contract under test: whatever bytes arrive, ``_read_request`` either
returns a parsed request, raises ``_HttpError`` (with a 400/413 the
handler turns into a response), or raises ``IncompleteReadError`` /
``TimeoutError`` (client gone / stalled).  Nothing else — no hangs, no
unhandled exceptions — and a live server survives a barrage of
malformed connections with ``/healthz`` and the cache tier still
answering afterwards.
"""

import asyncio
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.server import (
    CACHE_MAX_BODY,
    MAX_HEADER_LINE,
    ReproServer,
    _HttpError,
)
from repro.sim import transport
from repro.sim.cache import HttpCacheTier, RunCache
from tests.serve.test_server import request, run

#: The parser never touches the cache; the server just needs one.
_IDLE_CACHE = RunCache(tempfile.gettempdir(), salt="parser-fuzz")

#: The only ways _read_request may end, besides returning a request.
ALLOWED_ERRORS = (_HttpError, asyncio.IncompleteReadError,
                  asyncio.TimeoutError)


def parse(raw: bytes) -> str:
    """Feed ``raw`` to the parser; classify the outcome (or re-raise)."""

    async def main():
        server = ReproServer(_IDLE_CACHE, port=0, read_timeout=5.0)
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        try:
            method, target, headers, body = await asyncio.wait_for(
                server._read_request(reader), timeout=10
            )
        except _HttpError as exc:
            assert exc.status in (400, 413), exc.status
            return f"http_{exc.status}"
        except (asyncio.IncompleteReadError, ConnectionError):
            return "disconnect"
        assert isinstance(method, str) and isinstance(target, str)
        assert isinstance(headers, dict) and isinstance(body, bytes)
        return "request"

    return asyncio.run(main())


class _Sink:
    """Collects what the handler writes (stands in for a StreamWriter)."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def can_write_eof(self) -> bool:
        return False

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def answer(raw: bytes, root) -> int:
    """The status a cache-tier server over ``root`` answers ``raw`` with."""

    async def main():
        server = ReproServer(RunCache(root), port=0, read_timeout=5.0)
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        sink = _Sink()
        await server._handle_connection(reader, sink)
        return int(bytes(sink.data).split(b" ", 2)[1])

    return asyncio.run(main())


# -- strategies -------------------------------------------------------

header_name = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=":"),
    min_size=1, max_size=16,
)
header_value = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=32
)


@st.composite
def structured_requests(draw):
    """Almost-valid requests: plausible shape, hostile details."""
    method = draw(st.sampled_from(["GET", "POST", "G E T", "", "\x00"]))
    target = draw(st.one_of(
        st.just("/v1/cache/" + "ab" * 32),
        st.text(st.characters(min_codepoint=33, max_codepoint=126),
                max_size=64),
        st.just("/" + "a" * 4096),  # over MAX_TARGET
    ))
    version = draw(st.sampled_from(
        ["HTTP/1.1", "HTTP/1.0", "HTTP/9.9", "FTP/1.0", ""]
    ))
    headers = draw(st.lists(st.tuples(header_name, header_value),
                            max_size=6))
    body = draw(st.binary(max_size=64))
    length = draw(st.one_of(
        st.none(),
        st.just(len(body)),             # honest
        st.integers(-5, 200),           # lying
        st.just(10**9),                 # oversized
        st.just("banana"),              # non-numeric
    ))
    lines = [f"{method} {target} {version}".encode("latin-1", "replace")]
    for name, value in headers:
        lines.append(f"{name}: {value}".encode("latin-1", "replace"))
    if length is not None:
        lines.append(f"Content-Length: {length}".encode())
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


class TestParserFuzz:
    @given(st.binary(max_size=512))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_stay_inside_the_contract(self, raw):
        parse(raw)  # classification asserts the contract

    @given(structured_requests())
    @settings(max_examples=150, deadline=None)
    def test_structured_hostile_requests(self, raw):
        parse(raw)

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_truncated_bodies_read_as_disconnect(self, prefix):
        raw = (b"PUT /v1/cache/" + b"ab" * 32 +
               b" HTTP/1.1\r\nContent-Length: 1000\r\n\r\n" + prefix)
        assert parse(raw) == "disconnect"

    def test_known_outcomes(self):
        ok = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
        assert parse(ok) == "request"
        assert parse(b"") == "disconnect"
        assert parse(b"nonsense\r\n\r\n") == "http_400"
        assert parse(b"GET /x HTTP/1.1\r\n" +
                     b"A" * (MAX_HEADER_LINE + 1) + b"\r\n\r\n") == "http_400"
        assert parse(b"GET /" + b"a" * 3000 +
                     b" HTTP/1.1\r\n\r\n") == "http_400"
        assert parse(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
                     ) == "http_400"
        assert parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                     ) == "http_400"
        too_big = CACHE_MAX_BODY + 1
        assert parse(f"PUT /v1/cache/{'ab' * 32} HTTP/1.1\r\n"
                     f"Content-Length: {too_big}\r\n\r\n".encode()
                     ) == "http_413"
        # 64+ headers
        raw = b"GET /x HTTP/1.1\r\n" + b"".join(
            b"h%d: v\r\n" % i for i in range(70)
        ) + b"\r\n"
        assert parse(raw) == "http_400"

    def test_known_route_outcomes(self, tmp_path):
        key = "ab" * 32
        blob = transport.dumps({"ok": True})

        def put(body: bytes, k: str = key) -> bytes:
            return (f"PUT /v1/cache/{k} HTTP/1.1\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode() + body

        assert answer(b"GET /healthz HTTP/1.1\r\n\r\n", tmp_path) == 200
        assert answer(put(blob, "XY" * 32), tmp_path) == 400  # not hex
        assert answer(put(b"not an RPT1 blob"), tmp_path) == 400
        assert answer(b"POST /v1/cache/" + key.encode() +
                      b" HTTP/1.1\r\n\r\n", tmp_path) == 405
        for retired in (b"POST /v1/run", b"POST /v1/sweep",
                        b"GET /explorer"):
            assert answer(retired + b" HTTP/1.1\r\n\r\n", tmp_path) == 404
        assert answer(put(blob), tmp_path) == 201
        assert answer(put(blob), tmp_path) == 200  # first writer wins


class TestLiveServerSurvivesAbuse:
    def test_malformed_barrage_then_healthz(self):
        key = "7e" * 32
        put_head = (b"PUT /v1/cache/" + key.encode() + b" HTTP/1.1\r\n")

        async def body(server):
            rng = random.Random(1234)
            statuses = []
            for case in range(40):
                kind = rng.randrange(4)
                if kind == 0:    # garbage line (terminated, so the
                    # parser answers instead of waiting for more bytes)
                    payload = bytes(rng.randrange(256) for _ in range(
                        rng.randrange(1, 200)
                    )).replace(b"\n", b"") + b"\r\n"
                elif kind == 1:  # oversized declared body
                    payload = put_head + b"Content-Length: 99999999\r\n\r\n"
                elif kind == 2:  # truncated body, then disconnect
                    payload = put_head + b"Content-Length: 50\r\n\r\nshort"
                else:            # disconnect mid-request-line
                    payload = b"PUT /v1/ca"
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(payload)
                await writer.drain()
                if kind in (2, 3):
                    writer.close()  # client walks away mid-request
                    await writer.wait_closed()
                    continue
                data = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                await writer.wait_closed()
                if data:
                    statuses.append(int(data.split(b" ", 2)[1]))
            assert statuses, "no connection got an answer"
            assert set(statuses) <= {400, 413}
            # No truncated PUT claimed the key.
            assert server.cache.read_blob(key) is None
            # The server is still healthy and still serves the tier.
            status, _, _ = await asyncio.to_thread(
                request, server.port, "GET", "/healthz"
            )
            assert status == 200
            tier = HttpCacheTier(f"http://127.0.0.1:{server.port}")
            blob = transport.dumps([3, 9])
            assert await asyncio.to_thread(tier.put, key, blob) == "stored"
            assert await asyncio.to_thread(tier.get, key) == blob

        run(body)

    def test_stalled_body_times_out_with_408(self):
        from repro.chaos import FakeClock
        from repro.serve.server import READ_TIMEOUT

        async def body(server):
            fake = server.clock
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"PUT /v1/cache/" + b"ab" * 32 + b" HTTP/1.1\r\n"
                         b"Content-Length: 50\r\n\r\nonly-part")
            await writer.drain()
            # Wait (on real time) until the read has parked on the fake
            # clock, then jump past the deadline — no real sleeping.
            for _ in range(200):
                if fake.pending >= 1:
                    break
                await asyncio.sleep(0.01)
            assert fake.pending >= 1
            fake.advance(READ_TIMEOUT + 1)
            data = await asyncio.wait_for(reader.read(), timeout=10)
            assert data.startswith(b"HTTP/1.1 408 ")
            writer.close()
            await writer.wait_closed()

        run(body, clock=FakeClock())
