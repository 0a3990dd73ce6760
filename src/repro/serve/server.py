"""The certificate daemon: a zero-dependency asyncio HTTP front end.

``repro serve`` binds this server to a host/port and answers three
routes over plain HTTP/1.1 (parsed here with :mod:`asyncio` streams --
no web framework, matching the repo's stdlib-only rule):

``POST /v1/query``
    Body: one :class:`~repro.serve.protocol.ServeRequest` document.
    The request is mapped to a farm job, resolved through the
    :class:`~repro.serve.cache.ServeCache` (memory -> store ->
    batched compute on the pre-fork pool), and answered with a
    :class:`~repro.serve.protocol.ServeResponse`.  Identical requests
    return byte-identical ``result`` documents; only the envelope's
    ``source`` differs between cold and warm calls.
``GET /healthz``
    Liveness: ``{"status": "ok"}`` (``"draining"`` during shutdown).
``GET /statsz``
    Cache/batcher/store counters, uptime, per-tier hit ratios and the
    in-flight count, for the load generator and CI smoke.
``GET /metricsz``
    The live metrics-registry snapshot (counters, gauges, histogram
    buckets with ring time series) as JSON, or in the Prometheus text
    exposition format with ``?format=prom``; ``repro top`` polls this.

Operational behaviour, mirroring the farm runner's discipline:

* **Backpressure** -- at most ``max_inflight`` requests are admitted;
  beyond that the daemon answers ``429`` immediately (with an
  ``EV_SERVE_REJECT`` event) instead of queueing unboundedly.
* **Timeouts** -- a request that exceeds ``request_timeout`` answers
  ``504``; the underlying job keeps its own per-job pool timeout.
* **Graceful drain** -- SIGTERM/SIGINT stop the listener, answer new
  requests ``503``, wait for in-flight work to land (results are
  persisted to the store as they complete, like the farm's
  SIGINT-flush), then exit.
* **Broken peers** -- a client that disappears mid-reply
  (``BrokenPipeError``/``ConnectionResetError``) costs only its own
  connection handler; the daemon keeps serving.

Every admitted request runs under a ``serve.request`` span, so one
trace file tells the whole story: request -> cache decision -> batch
dispatch -> farm job -> store put.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from typing import Any, Callable
from urllib.parse import parse_qs

from ..errors import ReproError, ServeError
from ..farm.store import ArtifactStore
from ..obs import events as obs_events
from ..obs.flight import FlightRecorder, get_flight
from ..obs.registry import MetricsRegistry, prometheus_text, set_registry
from ..obs.trace import get_tracer
from . import protocol
from .batcher import Batcher
from .cache import ServeCache

__all__ = ["STATSZ_FORMAT", "ServeSettings", "CertificateServer"]

#: Version of the ``/statsz`` document (pinned in the sanitize schema
#: registry).  v2 added ``statsz``/``uptime``/``cache_ratios`` and made
#: ``inflight`` a stable part of the contract.
STATSZ_FORMAT = 2

#: Seconds between registry ring-series samples while serving.
_SAMPLE_INTERVAL = 1.0

logger = logging.getLogger("repro.serve")

#: Largest request body the daemon will read, in bytes.  Big enough for
#: an embedded serialised circuit, small enough to bound memory.
_MAX_BODY = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServeSettings:
    """Tunables of one daemon instance, with serving defaults."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        workers: int = 2,
        max_inflight: int = 64,
        max_batch: int = 32,
        batch_delay: float = 0.01,
        request_timeout: float = 300.0,
        job_timeout: "float | None" = None,
        memory_size: int = 1024,
    ):
        self.host = host
        self.port = int(port)
        self.workers = max(1, int(workers))
        self.max_inflight = max(1, int(max_inflight))
        self.max_batch = max(1, int(max_batch))
        self.batch_delay = max(0.0, float(batch_delay))
        self.request_timeout = max(0.1, float(request_timeout))
        self.job_timeout = job_timeout
        self.memory_size = max(0, int(memory_size))


class CertificateServer:
    """One daemon: listener, cache, batcher, and drain choreography."""

    def __init__(self, store: ArtifactStore, settings: "ServeSettings | None" = None):
        self.store = store
        self.settings = settings or ServeSettings()
        self.cache = ServeCache(store, memory_size=self.settings.memory_size)
        self.batcher = Batcher(
            workers=self.settings.workers,
            max_batch=self.settings.max_batch,
            max_delay=self.settings.batch_delay,
            job_timeout=self.settings.job_timeout,
            retries=0,
        )
        self.draining = False
        self.inflight = 0
        self.requests = 0
        self.rejected = 0
        #: The daemon's live metrics; installed process-globally while
        #: serving so the cache/batcher/farm layers publish into it.
        self.registry = MetricsRegistry()
        self.started = time.monotonic()
        self._server: "asyncio.base_events.Server | None" = None
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._sampler: "asyncio.Task | None" = None
        self._previous_registry: "MetricsRegistry | None" = None
        #: Live SIGUSR2 flight-dump tasks, referenced so the loop
        #: cannot garbage-collect one mid-dump.
        self._flight_dumps: "set[asyncio.Task]" = set()

    # -- request plumbing ---------------------------------------------------

    async def _compute(self, job: Any) -> dict[str, Any]:
        return await self.batcher.submit(job)

    async def handle_query(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """Resolve one parsed request body to ``(http_status, document)``."""
        request = protocol.request_from_json(body)
        job = request.job()
        key = job.key()
        try:
            result, source = await asyncio.wait_for(
                self.cache.lookup(job, self._compute),
                self.settings.request_timeout,
            )
        except asyncio.TimeoutError:
            return 504, protocol.ServeResponse(
                op=request.op,
                key=key,
                status="error",
                error=(
                    f"request exceeded {self.settings.request_timeout:g}s; "
                    "the job may still complete and land in the store"
                ),
            ).to_json()
        except ServeError as exc:
            return 500, protocol.ServeResponse(
                op=request.op, key=key, status="error", error=str(exc)
            ).to_json()
        return 200, protocol.ServeResponse(
            op=request.op, key=key, status="ok", source=source, result=result
        ).to_json()

    def stats_document(self) -> dict[str, Any]:
        """The ``/statsz`` body: counters, uptime, per-tier hit ratios.

        Versioned by :data:`STATSZ_FORMAT` and pinned in the sanitize
        schema-fingerprint registry; add fields freely, but renaming or
        removing one must bump the version.
        """
        cache = dict(self.cache.counters)
        lookups = sum(
            count for tier, count in cache.items()
            if tier != "revalidation_miss"
        )
        ratios = {
            tier: (cache.get(tier, 0) / lookups if lookups else 0.0)
            for tier in ("memory", "store", "joined", "computed")
        }
        return {
            "statsz": STATSZ_FORMAT,
            "protocol": protocol.PROTOCOL_VERSION,
            "status": "draining" if self.draining else "ok",
            "uptime": max(0.0, time.monotonic() - self.started),
            "requests": self.requests,
            "rejected": self.rejected,
            "inflight": self.inflight,
            "cache": cache,
            "cache_ratios": ratios,
            "batches": self.batcher.batches,
            "dispatched": self.batcher.dispatched,
            "store": {
                "hits": self.store.cache_hits,
                "misses": self.store.cache_misses,
            },
        }

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: "dict[str, Any] | None",
        query: str = "",
    ) -> "tuple[int, dict[str, Any] | str]":
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, {"status": "draining" if self.draining else "ok"}
        if path == "/statsz":
            if method != "GET":
                return 405, {"error": "statsz is GET-only"}
            return 200, self.stats_document()
        if path == "/metricsz":
            if method != "GET":
                return 405, {"error": "metricsz is GET-only"}
            snapshot = self.registry.snapshot()
            form = parse_qs(query).get("format", ["json"])[0]
            if form == "prom":
                return 200, prometheus_text(snapshot)
            if form != "json":
                return 400, {"error": f"unknown format {form!r} "
                                      "(expected json or prom)"}
            return 200, snapshot
        if path == "/v1/query":
            if method != "POST":
                return 405, {"error": "query is POST-only"}
            if body is None:
                return 400, {"error": "query requires a JSON body"}
            return await self.handle_query(body)
        return 404, {"error": f"no route {path!r}"}

    # -- HTTP/1.1 over asyncio streams --------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, str, bytes] | None":
        """Parse one request into ``(method, path, query, body)``;
        ``None`` when the peer closed cleanly."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split(None, 2)
        except ValueError as exc:
            raise ServeError(f"malformed request line {line!r}") from exc
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise ServeError(
                        f"bad content-length {value.strip()!r}"
                    ) from exc
        if length < 0:
            raise ServeError(f"negative content-length {length}")
        if length > _MAX_BODY:
            raise ServeError(f"request body of {length} bytes exceeds "
                             f"the {_MAX_BODY}-byte limit")
        payload = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), path, query, payload

    @staticmethod
    def _encode_response(status: int, doc: "dict[str, Any] | str") -> bytes:
        if isinstance(doc, str):
            # pre-rendered text body (the Prometheus exposition format)
            body = doc.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            # canonical JSON keeps replies byte-stable for identical
            # requests
            body = json.dumps(
                doc, sort_keys=True, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        return head + body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status = 500
        doc: "dict[str, Any] | str" = {"error": "internal error"}
        tracer = get_tracer()
        registry = self.registry
        admitted = False
        t0 = time.perf_counter()
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, query, payload = parsed
            if self.draining:
                status, doc = 503, {"error": "daemon is draining"}
                self.rejected += 1
                registry.inc("serve.rejected")
                if tracer.enabled:
                    tracer.event(
                        obs_events.EV_SERVE_REJECT,
                        reason="draining", http_status=503,
                    )
            elif self.inflight >= self.settings.max_inflight:
                status, doc = 429, {
                    "error": f"at capacity ({self.settings.max_inflight} "
                             "requests in flight); retry with backoff"
                }
                self.rejected += 1
                registry.inc("serve.rejected")
                if tracer.enabled:
                    tracer.event(
                        obs_events.EV_SERVE_REJECT,
                        reason="backpressure", http_status=429,
                    )
            else:
                admitted = True
                self.inflight += 1
                self.requests += 1
                registry.inc("serve.requests")
                registry.set_gauge("serve.inflight", self.inflight)
                self._idle.clear()
                body: "dict[str, Any] | None" = None
                if payload:
                    try:
                        decoded = json.loads(payload)
                    except json.JSONDecodeError as exc:
                        raise ServeError(
                            f"request body is not valid JSON: {exc}"
                        ) from exc
                    if not isinstance(decoded, dict):
                        raise ServeError("request body must be a JSON object")
                    body = decoded
                with tracer.span(
                    obs_events.SPAN_SERVE_REQUEST, method=method, path=path
                ):
                    status, doc = await self._dispatch(
                        method, path, body, query
                    )
        except ServeError as exc:
            status, doc = 400, {"error": str(exc)}
        except asyncio.IncompleteReadError:
            return  # peer hung up mid-request; nothing to answer
        except ReproError as exc:
            status, doc = 500, {"error": str(exc)}
        finally:
            if admitted:
                self.inflight -= 1
                registry.set_gauge("serve.inflight", self.inflight)
                registry.observe(
                    "serve.request_seconds", time.perf_counter() - t0
                )
                if self.inflight == 0:
                    self._idle.set()
            try:
                writer.write(self._encode_response(status, doc))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (BrokenPipeError, ConnectionResetError) as exc:
                # the peer is gone; log and keep serving everyone else
                logger.debug("serve: peer vanished mid-reply: %s", exc)

    # -- lifecycle ----------------------------------------------------------

    def _begin_serving(self) -> None:
        """Shared start-up: uptime clock, global registry, sample tick."""
        self.started = time.monotonic()
        self._previous_registry = set_registry(self.registry)
        self._sampler = asyncio.get_running_loop().create_task(
            self._sample_loop()
        )

    async def _end_serving(self) -> None:
        """Shared teardown: stop sampling, restore the global registry."""
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._sampler = None
        set_registry(self._previous_registry)
        self._previous_registry = None

    async def _sample_loop(self) -> None:
        """Append one ring-series point per metric every second."""
        while True:
            await asyncio.sleep(_SAMPLE_INTERVAL)
            self.registry.sample()

    def request_drain(self) -> None:
        """Begin shutdown: refuse new work, let in-flight work land."""
        if not self.draining:
            self.draining = True
            logger.info("serve: draining (%d in flight)", self.inflight)
            self._stopped.set()

    def _dump_flight(self, recorder: FlightRecorder) -> None:
        """SIGUSR2 loop callback: dump the flight ring off the loop.

        The dump's atomic-write dance is disk I/O, so it runs on a
        worker thread; the task is held in ``_flight_dumps`` until done
        so it cannot be garbage-collected mid-write.
        """
        task = asyncio.get_running_loop().create_task(
            asyncio.to_thread(recorder.dump, "sigusr2")
        )
        self._flight_dumps.add(task)
        task.add_done_callback(self._flight_dumps.discard)

    async def serve_forever(
        self, on_ready: "Callable[[int], None] | None" = None
    ) -> None:
        """Run until SIGTERM/SIGINT, then drain and return.

        ``on_ready`` is called with the bound port once the listener is
        accepting -- the CLI uses it to announce readiness on stdout so
        scripted callers can wait for the line instead of polling.

        While serving, the CLI flight recorder's synchronous ``SIGUSR2``
        handler (which writes its dump on whatever the main thread was
        doing -- here, the event loop) is replaced by a loop-registered
        callback that pushes the dump to a worker thread; the original
        handler is restored on exit so post-drain CLI code keeps its
        crash dumps.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_drain)
        recorder = get_flight()
        flight_signum = getattr(signal, "SIGUSR2", None)
        if recorder is not None and flight_signum is not None:
            loop.add_signal_handler(
                flight_signum, self._dump_flight, recorder
            )
        self.batcher.start()
        self._begin_serving()
        self._server = await asyncio.start_server(
            self._handle_connection, self.settings.host, self.settings.port
        )
        if on_ready is not None:
            on_ready(self.port)
        try:
            await self._stopped.wait()
            # listener stays open through the drain so late requests get
            # an orderly 503 instead of a connection refusal
            await self._idle.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            await self.batcher.stop()
            if self._flight_dumps:
                await asyncio.gather(
                    *self._flight_dumps, return_exceptions=True
                )
            await self._end_serving()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
            if recorder is not None and flight_signum is not None:
                loop.remove_signal_handler(flight_signum)
                recorder.install_signal_handler()

    @property
    def port(self) -> int:
        """The bound port (resolves 0 to the kernel's pick)."""
        if self._server is None or not self._server.sockets:
            return self.settings.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start answering, without installing signal handlers.

        Test harnesses use this with :meth:`stop` for in-process
        lifecycle control; ``repro serve`` uses :meth:`serve_forever`.
        """
        self.batcher.start()
        self._begin_serving()
        self._server = await asyncio.start_server(
            self._handle_connection, self.settings.host, self.settings.port
        )

    async def stop(self) -> None:
        """Drain in-flight work and release the listener (test harness)."""
        self.request_drain()
        await self._idle.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        await self._end_serving()
