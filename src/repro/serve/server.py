"""Stdlib asyncio HTTP/1.1 server for the shared run-cache tier.

Endpoints::

    GET  /healthz            liveness + uptime
    GET  /metrics            Prometheus text exposition
    GET  /v1/cache/<key>     blob fetch (octet-stream | 404)
    PUT  /v1/cache/<key>     blob publish (201 stored | 200 already
                             present: first writer wins | 400 not RPT1)

Workers point ``--cache-url`` at this server
(:class:`~repro.sim.cache.HttpCacheTier`): their local misses read
through it and their local stores write through, so a fleet computes
each cell once.  One connection serves one request (``Connection:
close``), which keeps parsing trivial.
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import urlsplit

from repro.chaos.clock import CLOCK
from repro.serve.metrics import Registry
from repro.sim import transport
from repro.sim.cache import RunCache

REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
}

#: Limits keeping a misbehaving client from holding memory or sockets.
MAX_HEADER_LINE = 8192
MAX_HEADERS = 64
MAX_TARGET = 2048
#: Body cap: PUTs carry framed cell results, and chain-stage
#: checkpoints serialize whole VMs.
CACHE_MAX_BODY = 64 << 20
READ_TIMEOUT = 30.0

JSON_TYPE = "application/json"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ReproServer:
    """The shared cache tier: a :class:`RunCache` behind HTTP."""

    def __init__(
        self,
        cache: RunCache,
        host: str = "127.0.0.1",
        port: int = 8377,
        read_timeout: float = READ_TIMEOUT,
        injector=None,
        clock=None,
    ):
        self.cache = cache
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.injector = injector
        self.clock = clock if clock is not None else CLOCK
        self._conn_seq = 0
        self.registry = Registry()
        self.m_requests = self.registry.counter(
            "repro_requests_total", "HTTP requests by endpoint.",
            label="endpoint",
        )
        self.m_responses = self.registry.counter(
            "repro_responses_total", "HTTP responses by status code.",
            label="code",
        )
        self.m_latency = self.registry.histogram(
            "repro_request_seconds",
            "Wall-clock request latency (connection accept to last byte).",
        )
        self.m_dropped = self.registry.counter(
            "repro_connections_dropped_total",
            "Connections dropped before reading (injected accept faults).",
        )
        self.m_cache_tier = self.registry.counter(
            "repro_cache_tier_requests_total",
            "Shared-tier blob operations served, by outcome.",
            label="outcome",
        )
        self.m_cache_tier_bytes = self.registry.counter(
            "repro_cache_tier_bytes_total",
            "Shared-tier blob body bytes on the wire, by direction.",
            label="direction",
        )
        self.started = self.clock.wall()
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket.

        ``port=0`` binds an ephemeral port; ``self.port`` is updated to
        the bound value either way.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def run(self) -> None:  # pragma: no cover - interactive entry point
        """Blocking convenience runner (the CLI's ``repro serve``)."""

        async def _main():
            await self.start()
            print(f"repro serve listening on http://{self.host}:{self.port} "
                  f"(cache {self.cache.root})")
            try:
                await self.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        started = self.clock.monotonic()
        conn_id = self._conn_seq
        self._conn_seq += 1
        try:
            if self.injector is not None:
                record = self.injector.fire("serve.accept", f"conn{conn_id}")
                if record is not None:
                    # Drop the connection before reading a byte — the
                    # client retries; the server must degrade cleanly,
                    # never crash or leak the socket.
                    self.m_dropped.inc()
                    self.injector.recover(record, "dropped_for_retry")
                    return
            try:
                method, target, headers, body = await self._read_request(
                    reader, conn_id
                )
            except _HttpError as exc:
                await self._respond_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            except asyncio.TimeoutError:
                # A stalled client gets a definite answer, not a hang.
                await self._respond_json(
                    writer, 408, {"error": "request read timed out"}
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request
            await self._dispatch(writer, method, target, headers, body)
        except ConnectionError:  # pragma: no cover - client reset mid-write
            pass
        finally:
            self.m_latency.observe(self.clock.monotonic() - started)
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            conn_id: int = 0):
        line = await self.clock.wait_for(
            reader.readline(), self.read_timeout
        )
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        if len(line) > MAX_HEADER_LINE:
            raise _HttpError(400, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        if len(target) > MAX_TARGET:
            raise _HttpError(400, "request target too long")
        headers: dict[str, str] = {}
        while True:
            line = await self.clock.wait_for(
                reader.readline(), self.read_timeout
            )
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > MAX_HEADER_LINE or len(headers) >= MAX_HEADERS:
                raise _HttpError(400, "headers too large")
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if length < 0:
                raise _HttpError(400, "bad Content-Length")
            if length > CACHE_MAX_BODY:
                raise _HttpError(
                    413, f"body exceeds {CACHE_MAX_BODY} bytes"
                )
            if self.injector is not None:
                record = self.injector.fire("serve.body", f"conn{conn_id}")
                if record is not None:
                    # Model a body that never finishes arriving: the
                    # guard answers 408 instead of holding the socket.
                    self.injector.recover(record, "timeout_408")
                    raise asyncio.TimeoutError("injected body stall")
            body = await self.clock.wait_for(
                reader.readexactly(length), self.read_timeout
            )
        return method, target, headers, body

    async def _dispatch(self, writer, method: str, target: str,
                        headers: dict, body: bytes) -> None:
        path = urlsplit(target).path
        # Per-key cache paths collapse to one label value: a fleet
        # syncing thousands of digests must not explode the cardinality
        # of the requests counter.
        is_cache = path.startswith("/v1/cache/")
        self.m_requests.inc("/v1/cache" if is_cache else path)
        if path == "/healthz" and method == "GET":
            await self._respond_json(writer, 200, {
                "status": "ok",
                "uptime_seconds": round(self.clock.wall() - self.started, 3),
            })
        elif path == "/metrics" and method == "GET":
            await self._respond(
                writer, 200, self.registry.render().encode(),
                content_type=METRICS_TYPE,
            )
        elif is_cache:
            await self._handle_cache(
                writer, method, path[len("/v1/cache/"):], body
            )
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _handle_cache(self, writer, method: str, key: str,
                            body: bytes) -> None:
        """The shared blob tier: GET/PUT cell-result blobs by digest.

        The server stores and serves bytes; deserialization (and
        corruption quarantine) stays on the client side.  PUT is
        first-writer-wins (single-writer promotion): a digest already
        present answers 200 without touching disk, so a fleet racing to
        publish the same result writes it once.

        A PUT body must parse as an RPT1 blob (header and frame table;
        nothing is unpickled) or it answers 400, so a malformed write
        can never claim a key that every reader would then quarantine.
        """
        cache = self.cache
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            await self._respond_json(
                writer, 400,
                {"error": "key must be a 64-char lowercase hex digest"},
            )
            return
        loop = asyncio.get_running_loop()
        if method == "GET":
            blob = await loop.run_in_executor(None, cache.read_blob, key)
            if blob is None:
                self.m_cache_tier.inc("get_miss")
                await self._respond_json(
                    writer, 404, {"error": f"no blob for {key[:12]}"}
                )
                return
            self.m_cache_tier.inc("get_hit")
            self.m_cache_tier_bytes.inc("get", len(blob))
            await self._respond(writer, 200, blob,
                                content_type="application/octet-stream")
        elif method == "PUT":
            try:
                transport.blob_info(body)
            except transport.TransportError as exc:
                self.m_cache_tier.inc("put_rejected")
                await self._respond_json(
                    writer, 400, {"error": f"body is not an RPT1 blob: {exc}"}
                )
                return
            outcome = await loop.run_in_executor(
                None, lambda: cache.write_blob(key, body, overwrite=False)
            )
            if outcome == "stored":
                self.m_cache_tier.inc("put_stored")
                self.m_cache_tier_bytes.inc("put", len(body))
                await self._respond_json(writer, 201, {"stored": key})
            elif outcome == "exists":
                self.m_cache_tier.inc("put_exists")
                await self._respond_json(writer, 200, {"exists": key})
            else:
                self.m_cache_tier.inc("put_failed")
                await self._respond_json(
                    writer, 500, {"error": "blob store failed"}
                )
        else:
            await self._respond_json(
                writer, 405, {"error": "GET or PUT required"},
                extra=[("Allow", "GET, PUT")],
            )

    # -- response plumbing --------------------------------------------

    async def _respond_json(self, writer, status: int, payload: dict,
                            extra: list[tuple[str, str]] | None = None
                            ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        await self._respond(writer, status, body, content_type=JSON_TYPE,
                            extra=extra)

    async def _respond(self, writer, status: int, body: bytes,
                       content_type: str = JSON_TYPE,
                       extra: list[tuple[str, str]] | None = None) -> None:
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
            ("Connection", "close"),
        ] + list(extra or [])
        self.m_responses.inc(str(status))
        writer.write(_head(status, headers) + body)
        await writer.drain()


def _head(status: int, headers: list[tuple[str, str]]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def build_server(args) -> ReproServer:
    """Construct a server from parsed ``repro serve`` CLI args."""
    return ReproServer(RunCache(args.cache_dir), host=args.host,
                       port=args.port)


class ServerThread:
    """A live ``ReproServer`` on its own event loop and thread.

    ``with ServerThread(cache=...) as server:`` binds an ephemeral port
    (``server.port``) and stops the server on exit.
    """

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
