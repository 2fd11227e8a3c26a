"""Stdlib asyncio HTTP/1.1 server exposing the experiment registry.

Endpoints::

    GET  /healthz            liveness + queue snapshot
    GET  /v1/experiments     experiment registry with descriptions
    GET  /metrics            Prometheus text exposition
    POST /v1/run             {"experiment", "scale", "params"} -> result
    POST /v1/run?stream=1    NDJSON progress events, result last
    GET  /v1/cache/<key>     shared-tier blob fetch (octet-stream | 404)
    PUT  /v1/cache/<key>     shared-tier blob publish (201 stored |
                             200 already present: first writer wins)
    POST /v1/sweep           {"policies", "schemes", "workloads", ...}
                             -> grid sweep result (Pareto frontier)
    POST /v1/sweep?stream=1  NDJSON per-cell events, result last
    GET  /v1/sweep/<id>      per-cell sweep state snapshot
    POST /v1/sweep/<id>/cancel  stop at the next wave boundary
    GET  /explorer           self-contained HTML frontier explorer

Design notes.  One connection serves one request (``Connection:
close``) — parsing stays trivial and a load generator saturates it
fine.  Response *bodies* for ``/v1/run`` are a pure function of the
request spec; volatile facts (timing, coalescing, cache provenance)
travel in ``X-Repro-*`` headers so concurrent, cold and warm answers
to the same request are byte-identical.  Streaming responses carry no
``Content-Length`` and are delimited by connection close, which every
HTTP/1.1 client understands.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.chaos.clock import CLOCK
from repro.serve.metrics import Registry
from repro.sim import transport
from repro.serve.scheduler import (
    BadRequest,
    Job,
    JobOutcome,
    QueueFull,
    Scheduler,
    UnknownExperiment,
    default_plans_for,
    error_body,
)
from repro.sim.cache import RunCache

REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Limits keeping a misbehaving client from holding memory or sockets.
MAX_HEADER_LINE = 8192
MAX_HEADERS = 64
MAX_TARGET = 2048
MAX_BODY = 1 << 20
#: Cache-tier PUTs carry pickled cell results — chain-stage checkpoints
#: serialize whole VMs, far past the JSON request cap.
CACHE_MAX_BODY = 64 << 20
READ_TIMEOUT = 30.0

JSON_TYPE = "application/json"
NDJSON_TYPE = "application/x-ndjson"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ReproServer:
    """The serve-layer composition root: scheduler + HTTP front end."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8377,
        queue_depth: int = 16,
        workers: int = 2,
        sim_jobs: int = 1,
        cache: RunCache | None = None,
        plans_for=default_plans_for,
        retry_after: float = 1.0,
        read_timeout: float = READ_TIMEOUT,
        max_body: int = MAX_BODY,
        injector=None,
        clock=None,
    ):
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_body = max_body
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
        self.scheduler = Scheduler(
            queue_depth=queue_depth, workers=workers, sim_jobs=sim_jobs,
            cache=cache, plans_for=plans_for, retry_after=retry_after,
            registry=self.registry, injector=injector, clock=self.clock,
        )
        self.started = self.clock.wall()
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and spawn the scheduler workers.

        ``port=0`` binds an ephemeral port; ``self.port`` is updated to
        the bound value either way.
        """
        await self.scheduler.start()
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
        await self.scheduler.stop()

    def run(self) -> None:  # pragma: no cover - interactive entry point
        """Blocking convenience runner (the CLI's ``repro serve``)."""

        async def _main():
            await self.start()
            print(f"repro serve listening on http://{self.host}:{self.port} "
                  f"(queue={self.scheduler.queue_depth}, "
                  f"workers={self.scheduler.workers})")
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
            # Blob PUTs on the cache tier get their own (much larger)
            # cap; everything else keeps the tight JSON-body limit.
            body_cap = (
                CACHE_MAX_BODY if target.startswith("/v1/cache/")
                else self.max_body
            )
            if length > body_cap:
                raise _HttpError(
                    413, f"body exceeds {body_cap} bytes"
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
        url = urlsplit(target)
        path = url.path
        # Per-key cache and per-id sweep paths collapse to one label
        # value each — a fleet syncing thousands of digests must not
        # explode the cardinality of the requests counter.
        if path.startswith("/v1/cache/"):
            label = "/v1/cache"
        elif path.startswith("/v1/sweep/"):
            label = "/v1/sweep/id"
        else:
            label = path
        self.m_requests.inc(label)
        if path == "/healthz" and method == "GET":
            await self._respond_json(writer, 200, {
                "status": "ok",
                "uptime_seconds": round(self.clock.wall() - self.started, 3),
                "queue_depth": self.scheduler._queue.qsize(),
                "inflight": len(self.scheduler._inflight),
            })
        elif path == "/v1/experiments" and method == "GET":
            from repro.cli import EXPERIMENTS, SCALES

            await self._respond_json(writer, 200, {
                "experiments": dict(EXPERIMENTS),
                "scales": sorted(SCALES),
            })
        elif path == "/metrics" and method == "GET":
            await self._respond(
                writer, 200, self.registry.render().encode(),
                content_type=METRICS_TYPE,
            )
        elif path == "/v1/run":
            if method != "POST":
                await self._respond_json(
                    writer, 405, {"error": "POST required"},
                    extra=[("Allow", "POST")],
                )
                return
            stream = parse_qs(url.query).get("stream", ["0"])[0] not in (
                "0", "", "false"
            )
            await self._handle_run(writer, body, stream)
        elif path.startswith("/v1/cache/"):
            await self._handle_cache(
                writer, method, path[len("/v1/cache/"):], body
            )
        elif path == "/v1/sweep":
            if method != "POST":
                await self._respond_json(
                    writer, 405, {"error": "POST required"},
                    extra=[("Allow", "POST")],
                )
                return
            stream = parse_qs(url.query).get("stream", ["0"])[0] not in (
                "0", "", "false"
            )
            await self._handle_sweep(writer, body, stream)
        elif path.startswith("/v1/sweep/"):
            await self._handle_sweep_status(
                writer, method, path[len("/v1/sweep/"):]
            )
        elif path == "/explorer" and method == "GET":
            from repro.sweep.explorer import render_explorer

            page = render_explorer(self.scheduler.sweep_entries())
            await self._respond(
                writer, 200, page.encode(),
                content_type="text/html; charset=utf-8",
            )
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _handle_run(self, writer, body: bytes, stream: bool) -> None:
        try:
            request = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            await self._respond_json(writer, 400, {"error": "body is not JSON"})
            return
        if not isinstance(request, dict) or "experiment" not in request:
            await self._respond_json(
                writer, 400,
                {"error": 'body must be {"experiment": ..., "scale": ...}'},
            )
            return
        experiment = request["experiment"]
        scale = request.get("scale", "quick")
        params = request.get("params") or None
        if params is not None and not isinstance(params, dict):
            await self._respond_json(
                writer, 400, {"error": "params must be an object"}
            )
            return
        try:
            job, coalesced = self.scheduler.submit(experiment, scale, params)
        except UnknownExperiment as exc:
            await self._respond_json(writer, 404, {"error": str(exc)})
            return
        except BadRequest as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        except QueueFull as exc:
            await self._respond_json(
                writer, 503, {"error": str(exc)},
                extra=[("Retry-After", f"{self.scheduler.retry_after:g}")],
            )
            return
        if stream:
            await self._stream_job(writer, job, coalesced)
        else:
            outcome = await asyncio.shield(job.outcome)
            await self._respond_outcome(writer, job, outcome, coalesced)

    async def _handle_sweep(self, writer, body: bytes, stream: bool) -> None:
        from repro.sweep.grid import SweepValidationError

        try:
            request = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            await self._respond_json(writer, 400, {"error": "body is not JSON"})
            return
        try:
            job, coalesced = self.scheduler.submit_sweep(request)
        except SweepValidationError as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        except QueueFull as exc:
            await self._respond_json(
                writer, 503, {"error": str(exc)},
                extra=[("Retry-After", f"{self.scheduler.retry_after:g}")],
            )
            return
        if stream:
            self.scheduler.sweep_stream_clients += 1
            try:
                await self._stream_job(writer, job, coalesced)
            finally:
                self.scheduler.sweep_stream_clients -= 1
        else:
            outcome = await asyncio.shield(job.outcome)
            stats = outcome.stats or {}
            extra = [
                ("X-Repro-Sweep", job.job_id),
                ("X-Repro-Sweep-Points", str(job.total_points)),
                ("X-Repro-Sweep-Cells", str(job.total_cells)),
                ("X-Repro-Coalesced", "1" if coalesced else "0"),
                ("X-Repro-Elapsed-Ms", f"{outcome.elapsed_ms:.3f}"),
                ("X-Repro-Cells-Computed", str(stats.get("computed", 0))),
                ("X-Repro-Cells-Cached", str(stats.get("cache_hits", 0))),
            ]
            status = 200 if outcome.status == "done" else 500
            await self._respond(writer, status, outcome.body,
                                content_type=JSON_TYPE, extra=extra)

    async def _handle_sweep_status(self, writer, method: str,
                                   rest: str) -> None:
        """``GET /v1/sweep/<id>`` and ``POST /v1/sweep/<id>/cancel``."""
        sweep_id, _, action = rest.partition("/")
        job = self.scheduler.get_sweep(sweep_id)
        if job is None:
            await self._respond_json(
                writer, 404, {"error": f"no sweep {sweep_id!r}"}
            )
            return
        if action == "" and method == "GET":
            if job.outcome.done():
                state = job.outcome.result().status
            else:
                state = "running" if job.run is not None else "queued"
            payload = {
                "sweep": job.job_id,
                "state": state,
                "points": job.total_points,
                "unique_cells": job.total_cells,
                "coalesced_joins": job.joiners,
            }
            if job.run is not None:
                payload.update(job.run.status())
            if job.result_data is not None:
                payload["frontier_labels"] = (
                    job.result_data["frontier_labels"]
                )
                payload["frontier_size"] = job.result_data["frontier_size"]
            await self._respond_json(writer, 200, payload)
        elif action == "cancel" and method == "POST":
            self.scheduler.cancel_sweep(sweep_id)
            await self._respond_json(writer, 200, {
                "sweep": job.job_id,
                "cancelled": not job.outcome.done(),
            })
        else:
            await self._respond_json(
                writer, 404,
                {"error": f"no route for {method} /v1/sweep/{rest}"},
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
        cache = self.scheduler.cache
        if cache is None:
            await self._respond_json(
                writer, 404, {"error": "cache tier disabled (--no-cache)"}
            )
            return
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

    async def _respond_outcome(self, writer, job: Job, outcome: JobOutcome,
                               coalesced: bool) -> None:
        stats = outcome.stats or {}
        extra = [
            ("X-Repro-Job", job.job_id),
            ("X-Repro-Coalesced", "1" if coalesced else "0"),
            ("X-Repro-Elapsed-Ms", f"{outcome.elapsed_ms:.3f}"),
            ("X-Repro-Cells-Computed", str(stats.get("computed", 0))),
            ("X-Repro-Cells-Cached", str(stats.get("cache_hits", 0))),
            ("X-Repro-Cells-Deduped", str(stats.get("deduped", 0))),
        ]
        status = 200 if outcome.status == "done" else 500
        await self._respond(writer, status, outcome.body,
                            content_type=JSON_TYPE, extra=extra)

    async def _stream_job(self, writer, job: Job, coalesced: bool) -> None:
        events = job.subscribe()
        head = [
            ("Content-Type", NDJSON_TYPE),
            ("X-Repro-Job", job.job_id),
            ("X-Repro-Coalesced", "1" if coalesced else "0"),
            ("Connection", "close"),
            ("Cache-Control", "no-store"),
        ]
        self.m_responses.inc("200")
        writer.write(_head(200, head))
        await writer.drain()
        while True:
            event = await events.get()
            if event is None:
                break
            writer.write(json.dumps(event, sort_keys=True).encode() + b"\n")
            try:
                await writer.drain()
            except ConnectionError:
                return  # subscriber gone; job itself keeps running

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
    injector = None
    plan_spec = getattr(args, "chaos_plan", None)
    if plan_spec:
        from repro.chaos import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan.parse(
            plan_spec, seed=getattr(args, "chaos_seed", 0) or 0
        ))
    cache = None
    if not getattr(args, "no_cache", False):
        tier = None
        cache_url = getattr(args, "cache_url", None)
        if cache_url:
            from repro.sim.cache import HttpCacheTier

            tier = HttpCacheTier(cache_url)
        cache = RunCache(getattr(args, "cache_dir", None),
                         injector=injector, tier=tier)
    return ReproServer(
        host=args.host, port=args.port,
        queue_depth=args.queue_depth, workers=args.workers,
        sim_jobs=args.jobs, cache=cache,
        retry_after=args.retry_after,
        injector=injector,
    )
