"""``repro serve``: a long-lived asyncio front-end for the service.

Everything below the transport existed before this module — the
content-addressed :class:`~repro.service.store.DesignStore`, the
resumable :class:`~repro.service.jobs.ExplorationJob`, the
:class:`~repro.service.runner.ExplorationService` facade — but every
client had to fork a CLI process per manifest.  This server keeps one
process (and its trained models, built netlists, and warm stores)
alive and speaks plain HTTP/1.1 over stdlib ``asyncio`` — no new
dependencies, no framework.

Contract highlights (the full table lives in
``docs/ARCHITECTURE.md`` → "Server"):

* **Streaming**: ``POST /v1/explore`` and ``POST /v1/sweep`` stream
  line-atomic JSONL (every ``write`` carries whole lines) — or SSE frames
  when the client sends ``Accept: text/event-stream``.  The line
  schemas are exactly :meth:`ExplorationService.run_manifest`'s /
  :meth:`ExplorationService.run_sweep`'s: the served bytes of a design
  line are *identical* to the serial batch runner's, pinned by the
  conformance suite (the wire path has an identity oracle like every
  engine does).
* **Idempotency / coalescing**: requests key by their content
  fingerprint (the same base-fingerprint → grid-key derivation the
  store uses).  A key lands in one of three tiers: its grid is in the
  store (a warm hit: one pooled store read, checked against the text
  the service last rendered, whose design lines it splices; then one
  write), it is being computed (the request attaches to that
  computation's result), or it is admitted and computed — exactly one
  computation per content key, ever.
* **Backpressure**: at most ``concurrency`` computations run and at
  most ``queue_depth`` more may wait; beyond that a submission gets
  ``429`` with a ``Retry-After`` header before any streaming starts.
  Warm hits and coalescing requests never enter the queue (they cost
  no computation).
* **Tenancy**: the ``X-Tenant`` header selects a per-tenant service:
  a store file under ``store_root``, a key namespace threaded into
  every base fingerprint (so tenants can never alias each other's
  rows), and the service's own evaluators and base caches.
  The default tenant keeps the empty namespace — its keys are
  byte-compatible with CLI-built stores.
* **Fleet coordination**: the JSON endpoints under ``/v1/jobs/``,
  ``/v1/bases/``, ``/v1/coeff/``, and ``/v1/coeff-netlists/`` expose
  the tenant store's lease/checkpoint primitives over HTTP, so
  ``repro explore --coordinator URL`` workers drain a grid with no
  shared filesystem; shard uploads are fenced by lease token (a
  reclaimed worker's late write gets 409 and mutates nothing).
* **Keep-alive**: a client that sends ``Connection: keep-alive`` may
  reuse the connection for up to ``_KEEPALIVE_MAX`` JSON requests
  (streams always close); the default stays ``close``.
* **Drain**: SIGTERM (or SIGINT) stops accepting, lets every
  in-flight stream finish, then exits 0.  The fault points
  ``server.accept`` / ``server.enqueue`` / ``server.stream`` /
  ``server.drain`` put the transport under the same ``REPRO_FAULTS``
  chaos grammar as the rest of the stack.

Threading model: the event loop owns all bookkeeping (in-flight map,
queues, counters); store reads and heavy work run in a small thread
pool through ``run_in_executor``.
:class:`~repro.eval.accuracy.CircuitEvaluator` is *not* thread-safe
(mutable simulation caches), so computations serialize per (dataset,
model) on a lock; different circuits still run concurrently.  A
computation's result lands in an ``asyncio.Future`` that the loop
resolves, so every request attached to it sees the same result.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs

from .faults import fault_point
from .jobs import DEFAULT_SHARD_SIZE
from .leases import DEFAULT_LEASE_TTL_S
from .runner import (ExplorationService, ExploreRequest, _e_value,
                     render_request)
from .store import (DesignStore, FencedWriteError, canonical_json,
                    design_from_dict, design_to_dict)
from .telemetry import (capture_context, counter as _metric,
                        current_request_id, current_trace_id, gauge,
                        get_hub, new_request_id, set_request_id, span,
                        use_context)
from .telemetry import configure as _configure_telemetry

__all__ = ["ServeConfig", "ExploreServer", "serve"]

_TENANT_OK = "abcdefghijklmnopqrstuvwxyz" \
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"

# Keep-alive is strictly opt-in (clients must send ``Connection:
# keep-alive``): every pre-existing client reads to EOF, so the default
# stays close.  The per-connection request cap bounds how long one
# client can pin a handler task.
_KEEPALIVE_MAX = 100
# Coordinator bodies (shard checkpoints, grid uploads) dwarf manifests;
# they get their own ceiling instead of raising the global one.
_COORD_MAX_BODY = 64 << 20
_COORD_PREFIXES = ("/v1/jobs/", "/v1/bases/", "/v1/coeff/",
                   "/v1/coeff-netlists/")


@dataclass(frozen=True)
class ServeConfig:
    """Everything one :class:`ExploreServer` is configured by."""

    host: str = "127.0.0.1"
    port: int = 8765            # 0 → ephemeral (the ready line names it)
    store_root: str = "stores"  # per-tenant store files live under here
    concurrency: int = 2        # computations running at once
    queue_depth: int = 16       # computations allowed to wait
    retry_after_s: int = 1      # advisory Retry-After on 429
    shard_size: int = DEFAULT_SHARD_SIZE
    default_tenant: str = "default"
    max_body_bytes: int = 1 << 20
    events_log: str | None = None   # JSONL span/event sink (enables tracing)
    trace_sample: float = 1.0       # fraction of traces recorded when tracing

    def __post_init__(self) -> None:
        for name, low in (("concurrency", 1), ("queue_depth", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got "
                                 f"{getattr(self, name)}")


class _HttpError(Exception):
    """An HTTP error response decided before streaming started."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _Wire:
    """The body of one streamed response, written in as few writes as possible.

    Lines arrive already rendered (JSON text, each serialized once);
    :meth:`add` frames them (JSONL, or SSE ``data:`` frames; the opt-in
    ``X-Trace`` stamp is spliced in as the last field) and buffers them
    behind the response head, and :meth:`flush` sends the buffer in one
    ``write``.  Every line passes the ``server.stream`` fault point
    before it is framed; when one fires, the lines before it still go
    out first, so a fault truncates the stream exactly at that line.
    """

    def __init__(self, writer: asyncio.StreamWriter, head: bytes,
                 sse: bool, trace_stamp: dict | None) -> None:
        self._writer = writer
        self._chunks = [head]
        self._prefix = "data: " if sse else ""
        self._end = "\n\n" if sse else "\n"
        # json.dumps({**record, "trace": stamp}) == this splice.
        self._trace = None if trace_stamp is None \
            else ', "trace": ' + json.dumps(trace_stamp) + "}"
        self._line_no = 0

    def add(self, lines: list[str]) -> None:
        framed = []
        try:
            for text in lines:
                self._line_no += 1
                fault_point("server.stream", index=self._line_no)
                if self._trace is not None:
                    text = text[:-1] + self._trace
                framed.append(self._prefix + text + self._end)
        except Exception:
            # The stream ends at the faulting line; the lines before it
            # still go out.
            self._chunks.append("".join(framed).encode())
            self._writer.write(b"".join(self._chunks))
            self._chunks = []
            raise
        self._chunks.append("".join(framed).encode())

    async def flush(self) -> None:
        if self._chunks:
            self._writer.write(b"".join(self._chunks))
            self._chunks = []
        await self._writer.drain()


class ExploreServer:
    """The asyncio HTTP server; one instance per process.

    Lifecycle: :meth:`start` binds the socket, :meth:`begin_drain`
    (sync — safe from a signal handler) stops accepting and lets
    in-flight work finish, ``await stopped.wait()`` observes the
    drain completing, :meth:`shutdown` is the composed teardown the
    tests use.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port = config.port
        self.draining = False
        self.stopped = asyncio.Event()
        self.counters = {
            "requests": 0, "computed": 0, "coalesced": 0,
            "rejected_busy": 0, "errors": 0,
        }
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=config.concurrency + 2,
            thread_name_prefix="repro-serve")
        self._services: dict[str, ExplorationService] = {}
        # key -> Future of (result, error) for each running computation
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._handlers: set[asyncio.Task] = set()
        self._computes: set[asyncio.Task] = set()
        self._sem = asyncio.Semaphore(config.concurrency)
        self._admitted = 0            # queued + running computations
        self._resolve_lock = asyncio.Lock()
        self._circuit_locks: dict[tuple, threading.Lock] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ExploreServer":
        self._loop = asyncio.get_running_loop()
        if self.config.events_log:
            _configure_telemetry(tracing=True,
                                 sample=self.config.trace_sample,
                                 events_path=self.config.events_log)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def begin_drain(self) -> None:
        """Stop accepting; finish in-flight work; then ``stopped`` sets.

        Synchronous and idempotent so ``loop.add_signal_handler`` can
        call it directly on SIGTERM.
        """
        if self.draining:
            return
        self.draining = True
        try:
            fault_point("server.drain")
        except Exception:
            pass  # a drain fault must never prevent the drain itself
        if self._server is not None:
            self._server.close()
        assert self._loop is not None
        self._loop.create_task(self._watch_drain())

    async def _watch_drain(self) -> None:
        while self._handlers or self._computes:
            await asyncio.sleep(0.02)
        self.stopped.set()

    async def shutdown(self) -> None:
        """Drain, wait, and release the worker pool (test teardown)."""
        self.begin_drain()
        await self.stopped.wait()
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown(wait=True)
        if self.config.events_log:
            # This server opened the sink in start(); flush the buffered
            # tail and release it so readers see every span.
            get_hub().close()

    # -- per-tenant services -------------------------------------------

    def _tenant(self, headers: dict) -> str:
        tenant = headers.get("x-tenant", self.config.default_tenant)
        if not tenant or len(tenant) > 64 \
                or any(c not in _TENANT_OK for c in tenant):
            raise _HttpError(400, f"invalid tenant {tenant[:80]!r}: use "
                                  "1-64 chars of [A-Za-z0-9._-]")
        return tenant

    def _service(self, tenant: str) -> ExplorationService:
        service = self._services.get(tenant)
        if service is None:
            config = self.config
            # The default tenant keeps the empty namespace: its keys
            # are byte-identical to a CLI-built store's, so pointing
            # store_root at existing stores serves them warm.
            namespace = "" if tenant == config.default_tenant else tenant
            store = DesignStore(Path(config.store_root) / f"{tenant}.sqlite",
                                namespace=namespace)
            service = ExplorationService(store, shard_size=config.shard_size)
            self._services[tenant] = service
        return service

    def _circuit_lock(self, dataset: str, model: str) -> threading.Lock:
        # Serializes one circuit's computations server-wide.  Within a
        # tenant it must: the service's CircuitEvaluator carries
        # mutable simulation caches.  The key leaves the tenant out, so
        # tenants also take turns on a circuit, though each tenant
        # service owns its evaluators and none is shared.
        return self._circuit_locks.setdefault((dataset, model),
                                              threading.Lock())

    # -- computations --------------------------------------------------

    async def _resolve_key(self, service: ExplorationService,
                           request: ExploreRequest) -> str:
        """The request's store grid key.

        A key this service already resolved is a cache read on the loop.
        First contact can train a model and build its netlist, so it
        runs pooled and serialized on one lock, which removes duplicate
        heavy work between racing first contacts.
        """
        gkey = service.cached_grid_key(request)
        if gkey is not None:
            return gkey
        assert self._loop is not None
        async with self._resolve_lock:
            return await self._loop.run_in_executor(
                self._pool, service.grid_key, request)

    def _admit(self, n_new: int, tenant: str) -> None:
        """Queue admission for ``n_new`` fresh computations, or 429."""
        if n_new == 0:
            return
        config = self.config
        limit = config.concurrency + config.queue_depth
        if self._admitted + n_new > limit:
            self.counters["rejected_busy"] += 1
            _metric("server.rejected", reason="busy")
            raise _HttpError(
                429, f"queue full ({self._admitted} in flight, "
                     f"limit {limit}); retry later",
                headers={"Retry-After": str(config.retry_after_s)})
        for _ in range(n_new):
            fault_point("server.enqueue", tenant=tenant)
        self._admitted += n_new

    async def _pooled(self, fn, *args):
        """``fn(*args)`` on the pool, under the caller's trace context.

        ``run_in_executor`` does not propagate contextvars: capture the
        handler's trace/request-id context here and reinstall it in the
        worker thread, so service/job/shard/engine spans parent under
        the originating ``server.request`` span.
        """
        assert self._loop is not None
        ctx = capture_context()

        def run_traced():
            with use_context(ctx):
                return fn(*args)

        return await self._loop.run_in_executor(self._pool, run_traced)

    def _spawn_compute(self, key: tuple, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` as the computation of ``key``; its future.

        The caller has already passed admission (``_admit``); this
        always decrements ``_admitted`` exactly once.  The future
        resolves to ``(result, error)``.  The in-flight entry pops only
        *after* the work landed in the store, so a late duplicate either
        coalesces or warm-hits — never recomputes.
        """
        assert self._loop is not None
        future = self._loop.create_future()
        self._inflight[key] = future

        async def compute() -> None:
            result = error = None
            try:
                async with self._sem:
                    result = await self._pooled(fn, *args)
                self.counters["computed"] += 1
                _metric("server.computed")
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                self.counters["errors"] += 1
                _metric("server.errors", kind="compute")
            finally:
                self._admitted -= 1
                self._inflight.pop(key, None)
                future.set_result((result, error))

        task = self._loop.create_task(compute())
        self._computes.add(task)
        task.add_done_callback(self._computes.discard)
        return future

    def _explore_sync(self, service: ExplorationService,
                      request: ExploreRequest) -> tuple:
        # The warm tier already missed on this key, so only the cold
        # half runs; the job's own grid read catches a grid finished
        # since.
        with self._circuit_lock(request.dataset, request.model), \
                service.request_span(request):
            return service.compute(request, resume=True)

    def _sweep_sync(self, service: ExplorationService,
                    request: ExploreRequest, e_values: tuple,
                    include_cross: bool) -> list[str]:
        out = io.StringIO()
        with self._circuit_lock(request.dataset, request.model):
            service.run_sweep(request, e_values, out,
                              include_cross=include_cross)
        return out.getvalue().splitlines()

    @staticmethod
    def _lookup_sync(service: ExplorationService, probes: list,
                     n_entries: int) -> tuple[dict, dict | None]:
        """Warm tier: the lines of every probed grid the store holds.

        ``probes`` is ``[(index, request)]``; returns ``({index:
        lines}, stats)``.  Each hit reads the grid's stored text and
        splices the design lines the service rendered from it before
        (:meth:`ExplorationService.warm_lines`).  When every entry of
        the response hit, the store stats for its summary come from
        this same call (nothing is left to compute, so they cannot
        change before it is sent).
        """
        hits = {}
        for index, request in probes:
            lines = service.warm_lines(index, request)
            if lines is not None:
                hits[index] = lines
        stats = service.store.stats() if len(hits) == n_entries else None
        return hits, stats

    # -- HTTP plumbing -------------------------------------------------

    async def _read_head(self, reader: asyncio.StreamReader,
                         idle: bool) -> bytes:
        """The raw request head; ``idle`` marks a kept-alive wait.

        Between keep-alive requests the wait runs in short slices so a
        drain can shed idle connections promptly.  ``readuntil`` only
        consumes its buffer once the separator is found, so a timed-out
        slice never loses bytes; a clean client close (EOF with nothing
        buffered) surfaces as ``ConnectionResetError`` — the handler's
        quiet exit — rather than a 400.
        """
        if not idle:
            return await reader.readuntil(b"\r\n\r\n")
        while True:
            try:
                return await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=0.25)
            except asyncio.TimeoutError:
                if self.draining:
                    raise ConnectionResetError(
                        "draining: closing idle keep-alive connection")
            except asyncio.IncompleteReadError as exc:
                if not exc.partial:
                    raise ConnectionResetError("keep-alive peer closed")
                raise

    async def _read_request(self, reader: asyncio.StreamReader,
                            idle: bool = False):
        try:
            head = await self._read_head(reader, idle)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _HttpError(400, "malformed HTTP request head")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        path, _sep, query = target.partition("?")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        limit = self.config.max_body_bytes
        if path.startswith(_COORD_PREFIXES):
            limit = max(limit, _COORD_MAX_BODY)
        if length > limit:
            raise _HttpError(413, f"body of {length} bytes exceeds the "
                                  f"{limit} limit")
        body = await reader.readexactly(length) if length else b""
        return method, path, query, headers, body

    @staticmethod
    def _head(status: int, content_type: str,
              extra: dict | None = None, length: int | None = None,
              conn: str = "close") -> bytes:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   500: "Internal Server Error",
                   503: "Service Unavailable"}
        lines = [f"HTTP/1.1 {status} {reasons.get(status, 'Status')}",
                 f"Content-Type: {content_type}",
                 f"Connection: {conn}"]
        if conn == "keep-alive":
            lines.append(f"Keep-Alive: max={_KEEPALIVE_MAX}")
        if length is not None:
            lines.append(f"Content-Length: {length}")
        rid = current_request_id()
        if rid is not None:
            # Every response of a connection — 200 streams, 429s, drain
            # 503s, even 500s — carries the request id (generated or
            # client-supplied), so client logs correlate with spans.
            lines.append(f"X-Request-Id: {rid}")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict, extra: dict | None = None,
                         conn: str = "close") -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(self._head(status, "application/json", extra,
                                len(body), conn) + body)
        await writer.drain()

    @staticmethod
    def _client_request_id(headers: dict) -> str | None:
        """A sanitized client-supplied ``X-Request-Id``, or ``None``."""
        rid = headers.get("x-request-id", "")
        if rid and len(rid) <= 64 and all(c in _TENANT_OK for c in rid):
            return rid
        return None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            peer = writer.get_extra_info("peername")
            fault_point("server.accept", peer=str(peer))
            served = 0
            while True:
                # One request == one context copy: each exchange on a
                # kept-alive connection gets a fresh request id (the
                # client may override per request) that scopes its whole
                # reply, including 4xx/5xx.
                set_request_id(new_request_id())
                keep = False
                try:
                    method, path, query, headers, body = \
                        await self._read_request(reader, idle=served > 0)
                    client_rid = self._client_request_id(headers)
                    if client_rid is not None:
                        set_request_id(client_rid)
                    keep = (headers.get("connection", "").lower()
                            == "keep-alive"
                            and served + 1 < _KEEPALIVE_MAX
                            and not self.draining)
                    conn = "keep-alive" if keep else "close"
                    with span("server.request", method=method, path=path):
                        kept = await self._route(method, path, query,
                                                 headers, body, writer,
                                                 conn)
                    keep = keep and kept
                except _HttpError as exc:
                    await self._send_json(writer, exc.status,
                                          {"error": exc.message},
                                          exc.headers)
                    keep = False
                served += 1
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception:
            self.counters["errors"] += 1
            _metric("server.errors", kind="transport")
            try:
                await self._send_json(
                    writer, 500, {"error": "internal server error"})
            except Exception:
                pass
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    _ENDPOINTS = ("/v1/explore", "/v1/sweep", "/v1/status", "/v1/healthz",
                  "/v1/metrics")

    @staticmethod
    def _endpoint_label(path: str) -> str:
        if path in ExploreServer._ENDPOINTS:
            return path
        for prefix in _COORD_PREFIXES:
            if path.startswith(prefix):
                return prefix.rstrip("/")
        return "other"

    async def _route(self, method: str, path: str, query: str,
                     headers: dict, body: bytes,
                     writer: asyncio.StreamWriter,
                     conn: str = "close") -> bool:
        """Dispatch one request; ``True`` iff the connection may persist
        (the response honored ``conn``; streams always close)."""
        self.counters["requests"] += 1
        _metric("server.requests", endpoint=self._endpoint_label(path))
        if path.startswith(_COORD_PREFIXES):
            # Coordinator (fleet) plane: cheap store operations, allowed
            # during drain so in-flight workers can land their
            # checkpoints and release their leases.
            await self._coordinate(method, path, query, headers, body,
                                   writer, conn)
            return True
        if path == "/v1/metrics":
            if method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            await self._metrics(headers, writer, conn)
            return True
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            status = 503 if self.draining else 200
            await self._send_json(writer, status, {
                "status": "draining" if self.draining else "ok",
                "pid": os.getpid()}, conn=conn)
            return True
        if path == "/v1/status":
            if method != "GET":
                raise _HttpError(405, "status is GET-only")
            await self._send_json(writer, 200, self._status(), conn=conn)
            return True
        if path in ("/v1/explore", "/v1/sweep"):
            if method != "POST":
                raise _HttpError(405, f"{path} is POST-only")
            if self.draining:
                raise _HttpError(503, "server is draining; not accepting "
                                      "new work")
            payload = self._parse_body(body)
            if path == "/v1/explore":
                await self._explore(payload, headers, writer)
            else:
                await self._sweep(payload, headers, writer)
            return False  # streamed with Connection: close
        raise _HttpError(404, f"unknown path {path!r}; endpoints: "
                              "/v1/explore /v1/sweep /v1/status "
                              "/v1/healthz /v1/metrics plus the "
                              "coordinator plane under /v1/jobs/ "
                              "/v1/bases/ /v1/coeff/ /v1/coeff-netlists/")

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def _status(self) -> dict:
        running = self.config.concurrency - self._sem._value
        return {
            "type": "status",
            "draining": self.draining,
            "admitted": self._admitted,
            "running": running,
            "queued": self._admitted - running,
            "in_flight_keys": len(self._inflight),
            "open_connections": len(self._handlers),
            "counters": dict(self.counters),
            "tenants": {name: {"store": service.store.path,
                               "namespace": service.store.namespace}
                        for name, service in self._services.items()},
            "limits": {"concurrency": self.config.concurrency,
                       "queue_depth": self.config.queue_depth},
        }

    async def _metrics(self, headers: dict, writer: asyncio.StreamWriter,
                       conn: str = "close") -> None:
        """``GET /v1/metrics``: Prometheus text (default) or JSON.

        Gauges are sampled at scrape time (the registry otherwise only
        sees monotonic events); everything else is whatever the layers
        below recorded since process start.
        """
        status = self._status()
        gauge("server.admitted", status["admitted"])
        gauge("server.running", status["running"])
        gauge("server.open_connections", status["open_connections"])
        gauge("server.inflight_keys", status["in_flight_keys"])
        gauge("server.draining", int(self.draining))
        registry = get_hub().registry
        if "application/json" in headers.get("accept", ""):
            await self._send_json(writer, 200, {
                "type": "metrics", **registry.snapshot(),
                "server": status}, conn=conn)
            return
        body = registry.render_prometheus().encode()
        writer.write(self._head(200, "text/plain; version=0.0.4",
                                None, len(body), conn) + body)
        await writer.drain()

    # -- coordinator (fleet) plane -------------------------------------
    #
    # JSON request/response endpoints exposing the tenant store's lease
    # and checkpoint primitives, so `repro explore --coordinator URL`
    # workers run the fleet loop over HTTP with no shared filesystem.
    # Every handler is one blocking store call run on the worker pool;
    # the store's own transactions provide all the atomicity the fleet
    # protocol needs (see docs/ARCHITECTURE.md "Distributed fleet").

    async def _store_call(self, tenant: str, fn, *args, **kwargs):
        assert self._loop is not None
        store = self._service(tenant).store
        return await self._loop.run_in_executor(
            self._pool, lambda: fn(store, *args, **kwargs))

    @staticmethod
    def _key_segment(segment: str) -> str:
        if not segment or len(segment) > 128 \
                or any(c not in _TENANT_OK for c in segment):
            raise _HttpError(400, f"invalid key segment {segment[:80]!r}")
        return segment

    @staticmethod
    def _coord_fields(payload: dict, *names):
        try:
            return tuple(payload[name] for name in names)
        except KeyError as exc:
            raise _HttpError(400, f"missing field {exc.args[0]!r}")

    async def _coordinate(self, method: str, path: str, query: str,
                          headers: dict, body: bytes,
                          writer: asyncio.StreamWriter, conn: str) -> None:
        tenant = self._tenant(headers)
        parts = [p for p in path.split("/") if p]  # ["v1", kind, key, ...]
        kind, rest = parts[1], parts[2:]
        if not rest:
            raise _HttpError(404, f"missing key under /v1/{kind}/")
        key = self._key_segment(rest[0])
        sub = rest[1:]
        payload = self._parse_body(body) if method in ("POST", "PUT") \
            else {}

        async def reply(data: dict, status: int = 200) -> None:
            await self._send_json(writer, status, data, conn=conn)

        try:
            if kind == "jobs":
                await self._coordinate_job(method, key, sub, payload,
                                           tenant, reply)
            elif kind == "bases" and sub == ["variants"]:
                await self._coordinate_variants(method, key, query,
                                                tenant, reply)
            elif kind == "coeff" and not sub:
                await self._coordinate_coeff(method, key, payload,
                                             tenant, reply)
            elif kind == "coeff-netlists" and sub in ([], ["fingerprint"]):
                await self._coordinate_coeff_netlist(
                    method, key, sub, payload, tenant, reply)
            else:
                raise _HttpError(404, f"unknown coordinator path {path!r}")
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad coordinator payload: {exc}")

    async def _coordinate_job(self, method: str, gkey: str, sub: list,
                              payload: dict, tenant: str, reply) -> None:
        call = self._store_call
        if sub and sub[0] == "leases":
            op = sub[1] if len(sub) == 2 else None
            if method == "POST" and op in ("claim", "renew", "release"):
                shard, worker = self._coord_fields(payload, "shard",
                                                   "worker")
                shard, worker = int(shard), str(worker)
                ttl_s = float(payload.get("ttl_s", DEFAULT_LEASE_TTL_S))
                if op == "claim":
                    token = await call(tenant, DesignStore.claim_lease,
                                       gkey, shard, worker, ttl_s)
                    await reply({"type": "lease", "token": int(token)})
                elif op == "renew":
                    token = payload.get("token")
                    renewed = await call(
                        tenant, DesignStore.renew_lease, gkey, shard,
                        worker, ttl_s,
                        token=None if token is None else int(token))
                    await reply({"type": "lease",
                                 "renewed": bool(renewed)})
                else:
                    await call(tenant, DesignStore.release_lease, gkey,
                               shard, worker)
                    await reply({"type": "lease", "released": True})
                return
            if method == "GET" and not sub[1:]:
                leases = await call(tenant, DesignStore.leases_for_grid,
                                    gkey)
                await reply({"type": "leases", "leases": {
                    str(shard): info for shard, info in leases.items()}})
                return
            raise _HttpError(405, "leases: POST claim/renew/release, "
                                  "GET the collection")
        if sub and sub[0] == "shards":
            if len(sub) == 2:
                shard = int(sub[1])
                if method == "GET":
                    stored = await call(tenant, DesignStore.get_shard,
                                        gkey, shard)
                    if stored is None:
                        raise _HttpError(404, f"no checkpoint for shard "
                                              f"{shard} of {gkey[:12]}")
                    await reply({"type": "shard", "shard": shard,
                                 "taus": stored[0],
                                 "payload": stored[1]})
                    return
                if method == "PUT":
                    taus, data, base_key = self._coord_fields(
                        payload, "taus", "payload", "base_key")
                    fence = payload.get("fence")
                    if fence is not None:
                        fence = (str(fence[0]), int(fence[1]))
                    try:
                        await call(tenant, DesignStore.put_shard, gkey,
                                   shard, [float(t) for t in taus],
                                   data, self._key_segment(base_key),
                                   fence=fence)
                    except FencedWriteError as exc:
                        raise _HttpError(409, str(exc))
                    except KeyError as exc:
                        raise _HttpError(400, f"bad shard payload: no "
                                              f"{exc.args[0]!r} field")
                    await reply({"type": "shard", "shard": shard,
                                 "stored": True})
                    return
                raise _HttpError(405, "shard checkpoints are GET/PUT")
            if method == "GET":
                indices = await call(tenant, DesignStore.shard_indices,
                                     gkey)
                await reply({"type": "shards",
                             "indices": sorted(int(i) for i in indices)})
                return
            raise _HttpError(405, "shards: GET the collection, "
                                  "GET/PUT /shards/{index}")
        if sub == ["grid"]:
            if method == "GET":
                designs = await call(tenant, DesignStore.get_grid, gkey)
                if designs is None:
                    raise _HttpError(404, f"no finished grid {gkey[:12]}")
                meta = await call(tenant, DesignStore.grid_meta, gkey)
                await reply({"type": "grid",
                             "designs": [design_to_dict(d)
                                         for d in designs],
                             "meta": meta})
                return
            if method == "PUT":
                (raw,) = self._coord_fields(payload, "designs")
                designs = [design_from_dict(d) for d in raw]
                await call(tenant, DesignStore.put_grid, gkey, designs,
                           meta=payload.get("meta"))
                await reply({"type": "grid", "stored": True,
                             "n_designs": len(designs)})
                return
            if method == "DELETE":
                await call(tenant, DesignStore.delete_grid, gkey)
                await reply({"type": "grid", "deleted": True})
                return
            raise _HttpError(405, "grid is GET/PUT/DELETE")
        raise _HttpError(404, f"unknown job resource {'/'.join(sub)!r}; "
                              "use leases, shards, or grid")

    async def _coordinate_variants(self, method: str, base_key: str,
                                   query: str, tenant: str,
                                   reply) -> None:
        if method == "GET":
            # ``?after=<rowid>``: only the rows stored past it.
            after = int(parse_qs(query).get("after", ["0"])[-1])
            variants, rowid = await self._store_call(
                tenant, DesignStore.variants_for_base, base_key, after)
            await reply({"type": "variants", "variants": [
                [list(ids), record.to_dict()]
                for ids, record in sorted(variants.items())],
                "rowid": rowid})
            return
        raise _HttpError(405, "variants are GET-only")

    async def _coordinate_coeff(self, method: str, key: str,
                                payload: dict, tenant: str,
                                reply) -> None:
        if method == "GET":
            data = await self._store_call(tenant, DesignStore.get_coeff,
                                          key)
            if data is None:
                raise _HttpError(404, f"no coefficient payload {key[:12]}")
            await reply({"type": "coeff", "payload": data})
            return
        if method == "PUT":
            (data,) = self._coord_fields(payload, "payload")
            await self._store_call(tenant, DesignStore.put_coeff, key,
                                   data)
            await reply({"type": "coeff", "stored": True})
            return
        raise _HttpError(405, "coeff payloads are GET/PUT")

    async def _coordinate_coeff_netlist(self, method: str, key: str,
                                        sub: list, payload: dict,
                                        tenant: str, reply) -> None:
        if method == "GET" and sub == ["fingerprint"]:
            fingerprint = await self._store_call(
                tenant, DesignStore.get_coeff_netlist_fingerprint, key)
            if fingerprint is None:
                raise _HttpError(404, f"no coeff netlist {key[:12]}")
            await reply({"type": "coeff-netlist",
                         "fingerprint": fingerprint})
            return
        if method == "PUT" and not sub:
            (fingerprint,) = self._coord_fields(payload, "fingerprint")
            stored, hit = await self._store_call(
                tenant, DesignStore.put_coeff_netlist, key, str(fingerprint))
            await reply({"type": "coeff-netlist", "fingerprint": stored,
                         "hit": hit})
            return
        raise _HttpError(405, "coeff netlists are PUT (plus GET "
                              "/fingerprint)")

    # -- streaming endpoints -------------------------------------------

    async def _explore(self, payload: dict, headers: dict,
                       writer: asyncio.StreamWriter) -> None:
        start = time.perf_counter()
        tenant = self._tenant(headers)
        service = self._service(tenant)
        manifest = payload.get("requests", [payload])
        if not isinstance(manifest, list) or not manifest:
            raise _HttpError(400, "'requests' must be a non-empty list")
        try:
            requests = [ExploreRequest.from_dict(d) for d in manifest]
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc))

        # Every tier is decided *before* the response status goes out,
        # so a full queue is a clean 429, never a broken stream.
        keys = []
        for request in requests:
            try:
                gkey = await self._resolve_key(service, request)
            except Exception as exc:
                raise _HttpError(400, f"cannot resolve "
                                      f"{request.name}: {exc}")
            keys.append((tenant, gkey))
        # Warm tier: one pooled call reads and renders every finished
        # grid that is not being computed right now.
        probes = [(index, request) for index, (request, key)
                  in enumerate(zip(requests, keys))
                  if key not in self._inflight]
        warm, stats = {}, None
        if probes:
            warm, stats = await self._pooled(
                self._lookup_sync, service, probes, len(requests))
        # In-flight and fresh tiers, checked after that await: an
        # identical cold request that started meanwhile is attached to,
        # not recomputed.
        sources: list = []   # per entry: rendered lines, or a key
        fresh: dict[tuple, ExploreRequest] = {}
        for index, (request, key) in enumerate(zip(requests, keys)):
            if index in warm:
                sources.append(warm[index])
                continue
            sources.append(key)
            if key not in self._inflight:
                fresh.setdefault(key, request)
        self._admit(len(fresh), tenant)
        n_coalesced = len(requests) - len(warm) - len(fresh)
        self.counters["coalesced"] += n_coalesced
        if n_coalesced:
            _metric("server.coalesced", n_coalesced)
        for key, request in fresh.items():
            self._spawn_compute(key, self._explore_sync, service, request)
        sources = [source if isinstance(source, list)
                   else self._inflight[source] for source in sources]
        await self._stream(writer, headers, requests, sources, service,
                           stats, start)

    @staticmethod
    def _trace_stamp(headers: dict) -> dict | None:
        """The opt-in per-line ``trace`` field (``X-Trace: 1`` header).

        Default responses never carry it — served design lines stay
        byte-identical whether telemetry is on, off, or sampled.
        """
        if headers.get("x-trace", "").lower() not in ("1", "true", "on"):
            return None
        stamp: dict = {}
        rid = current_request_id()
        if rid is not None:
            stamp["request_id"] = rid
        tid = current_trace_id()
        if tid is not None:
            stamp["trace_id"] = tid
        return stamp or None

    def _wire(self, writer: asyncio.StreamWriter, headers: dict) -> _Wire:
        """The 200 streamed response a request's ``Accept`` asks for."""
        sse = "text/event-stream" in headers.get("accept", "")
        content_type = "text/event-stream" if sse \
            else "application/x-ndjson"
        return _Wire(writer, self._head(200, content_type), sse,
                     self._trace_stamp(headers))

    async def _stream(self, writer: asyncio.StreamWriter, headers: dict,
                      requests: list, sources: list,
                      service: ExplorationService, stats: dict | None,
                      start: float) -> None:
        """Stream each entry's lines, then the summary.

        A warm-only response is one write.  Before waiting on a
        computation the buffered lines (at least the head) go out.
        """
        wire = self._wire(writer, headers)
        n_grid_hits = 0
        n_designs = 0
        for index, (request, source) in enumerate(zip(requests, sources)):
            if isinstance(source, list):
                lines = source
                n_grid_hits += 1
            else:
                await wire.flush()
                result, error = await asyncio.shield(source)
                if error is not None:
                    wire.add([json.dumps({"type": "error", "index": index,
                                          "request": request.name,
                                          "error": error})])
                    await wire.flush()
                    return
                designs, report = result
                lines = render_request(index, request, designs, report)
                n_grid_hits += int(report.grid_hit)
            n_designs += len(lines) - 1
            wire.add(lines)
        if stats is None:
            stats = await self._pooled(service.store.stats)
        wire.add([json.dumps({
            "type": "summary",
            "n_requests": len(requests),
            "n_grid_hits": n_grid_hits,
            "n_designs": n_designs,
            "runtime_s": time.perf_counter() - start,
            "store": stats,
        })])
        await wire.flush()

    async def _sweep(self, payload: dict, headers: dict,
                     writer: asyncio.StreamWriter) -> None:
        tenant = self._tenant(headers)
        service = self._service(tenant)
        e_values = payload.pop("e_values", None)
        include_cross = payload.pop("include_cross", True)
        if not isinstance(e_values, list) or not e_values:
            raise _HttpError(400, "'e_values' must be a non-empty list")
        if not isinstance(include_cross, bool):
            raise _HttpError(400, "'include_cross' must be true or false")
        try:
            e_values = tuple(_e_value(e) for e in e_values)
            request = ExploreRequest.from_dict({**payload, "base": "coeff"})
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc))
        # Sweeps coalesce on the normalized spec (cheap, no resolution):
        # identical concurrent sweeps share one run; the store already
        # dedupes everything under them across different spellings.
        key = (tenant, "sweep", canonical_json({
            "dataset": request.dataset, "model": request.model,
            "tau_grid": list(request.tau_grid), "e_values": list(e_values),
            "include_cross": include_cross}))
        future = self._inflight.get(key)
        if future is None:
            self._admit(1, tenant)
            future = self._spawn_compute(key, self._sweep_sync, service,
                                         request, e_values, include_cross)
        else:
            self.counters["coalesced"] += 1
            _metric("server.coalesced")

        wire = self._wire(writer, headers)
        await wire.flush()
        lines, error = await asyncio.shield(future)
        if error is not None:
            lines = [json.dumps({"type": "error", "error": error})]
        wire.add(lines)
        await wire.flush()


async def _serve_async(config: ServeConfig) -> None:
    server = await ExploreServer(config).start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_drain)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal handler support
    print(json.dumps({"type": "serving", "host": config.host,
                      "port": server.port, "pid": os.getpid()}),
          flush=True)
    await server.stopped.wait()
    await server.shutdown()
    print(json.dumps({"type": "drained", "counters": server.counters}),
          flush=True)


def serve(config: ServeConfig) -> None:
    """Run the server until SIGTERM/SIGINT completes a graceful drain.

    Prints one ``{"type": "serving", ...}`` ready line (with the bound
    port — pass ``port=0`` for an ephemeral one) and a final
    ``{"type": "drained", ...}`` line on exit, both line-atomic on
    stdout, so supervisors and tests can follow the lifecycle.
    """
    asyncio.run(_serve_async(config))
