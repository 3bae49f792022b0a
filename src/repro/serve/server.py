"""The asyncio front end: simulation-as-a-service.

One :class:`SimServer` accepts HTTP requests over plain asyncio streams
(stdlib only — no web framework):

``POST /run``
    Body: ``{"spec": <ProgramSpec wire dict>, "tenant": "...",
    "request_id": "...", "stream_metrics_s": <float|null>,
    "return_result": <bool>}``.  The response is a newline-delimited
    JSON event stream (``application/x-ndjson``, connection closed at
    the end): an ``accepted`` event, zero or more live ``sample``
    events when metric streaming was requested, then exactly one
    ``summary`` or ``error`` event.  Admission failures are shed
    *before* acceptance with typed HTTP errors (429 + the
    :class:`AdmissionError`/:class:`TenantBudgetError` wire form);
    malformed specs get 400 + the :class:`SpecError` wire form.

``GET /metrics``
    The server's live :class:`~repro.obs.MetricsRegistry` snapshot plus
    plan-cache, tenant-ledger, and pool state — the obs registry as a
    service endpoint.

``GET /healthz``
    ``{"ok": true}`` while the loop is responsive.

Request lifecycle: tenant admission (:mod:`.tenants`) → pool admission
(:mod:`.pool`) → coalescing (identical in-flight payloads share one
execution) → plan-cache lookup (:mod:`.plancache`) → ``spec.build()``
and ``Program.run`` on a pool thread with the tenant-clamped config and
a ``tenant/request_id`` tag stamped on the summary.  Every simulated
result is bit-identical to a direct in-process ``Program.run`` of the
same spec — the server adds scheduling, never semantics.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.errors import DamError
from ..obs import MetricsRegistry
from ..sam.spec import ProgramSpec, SpecError
from .errors import AdmissionError, ServeError
from .plancache import PlanCache
from .pool import RunPool
from .tenants import TenantLedger, TenantPolicy

#: Largest accepted request body (tensor payloads are lists of floats;
#: 256 MiB of JSON is far beyond any sane simulation request).
MAX_BODY_BYTES = 256 * 1024 * 1024


@dataclass
class ServeConfig:
    """Server tunables; every field has a production-safe default."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Concurrent run slots (pool threads; each may fork sim workers).
    max_concurrent: int = 2
    #: Requests allowed to wait beyond the running slots before shedding.
    queue_limit: int = 8
    plan_cache_entries: int = 128
    #: Persist the plan cache here: loaded (if present) at construction,
    #: saved on shutdown — warm plans survive server restarts.
    plan_cache_path: Optional[str] = None
    #: Per-tenant policies; unknown tenants fall back to ``default_policy``.
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: Forced executor override for every request (``None`` = the spec's).
    executor_override: Optional[str] = None


class SimServer:
    """A multi-tenant simulation run server over one asyncio loop."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self.plan_cache = PlanCache(self.config.plan_cache_entries)
        path = self.config.plan_cache_path
        if path and os.path.exists(path):
            self.plan_cache.load_json(path)
        self.tenants = TenantLedger(
            self.config.tenants, default=self.config.default_policy
        )
        self.pool = RunPool(self.config.max_concurrent, self.config.queue_limit)
        #: payload_key → Future resolving to the leader's outcome dict.
        self._inflight: dict[str, asyncio.Future] = {}
        self._request_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        #: Set at shutdown: idle keep-alive connections stop waiting for
        #: a next request and close (in-flight requests still drain).
        self._closing = asyncio.Event()
        self.address: Optional[tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, drain open connections, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._closing.set()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # The pool threads only run jobs the drained connections already
        # awaited, so a blocking join here is bounded and keeps "no
        # leaked processes" checkable the instant shutdown returns.
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.shutdown
        )
        if self.config.plan_cache_path:
            self.plan_cache.save_json(self.config.plan_cache_path)

    # ------------------------------------------------------------------
    # Connection handling (minimal HTTP/1.1 over asyncio streams).
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-stream; nothing to clean up
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_connection(self, reader, writer) -> None:
        # Keep-alive loop: Content-Length-framed responses (the GETs and
        # every error) leave the connection open for the next request;
        # ``POST /run`` streams ndjson to EOF and therefore always
        # closes (the stream has no length to frame).
        while True:
            read_task = asyncio.ensure_future(reader.readline())
            close_task = asyncio.ensure_future(self._closing.wait())
            done, _pending = await asyncio.wait(
                {read_task, close_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if read_task not in done:
                # Shutdown while idle between requests: hang up.
                read_task.cancel()
                return
            close_task.cancel()
            request_line = read_task.result().decode("latin-1").strip()
            if not request_line:
                return
            try:
                method, path, _version = request_line.split(" ", 2)
            except ValueError:
                await _respond_json(
                    writer, 400, {"error": "malformed request line"},
                    close=True,
                )
                return
            headers: dict[str, str] = {}
            while True:
                line = (await reader.readline()).decode("latin-1")
                if line in ("\r\n", "\n", ""):
                    break
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            close = headers.get("connection", "").lower() == "close"
            length = int(headers.get("content-length", 0) or 0)
            if length > MAX_BODY_BYTES:
                await _respond_json(
                    writer, 413, {"error": "request body too large"},
                    close=True,
                )
                return
            body = await reader.readexactly(length) if length else b""

            if method == "GET" and path == "/metrics":
                await _respond_json(
                    writer, 200, self.metrics_payload(), close=close
                )
            elif method == "GET" and path == "/healthz":
                await _respond_json(writer, 200, {"ok": True}, close=close)
            elif method == "POST" and path == "/run":
                await self._handle_run(body, writer)
                return
            else:
                await _respond_json(
                    writer, 404,
                    {"error": f"no route for {method} {path}"},
                    close=close,
                )
            if close:
                return

    def metrics_payload(self) -> dict[str, Any]:
        return {
            "metrics": self.metrics.snapshot(),
            "plan_cache": self.plan_cache.snapshot(),
            "tenants": self.tenants.snapshot(),
            "pool": self.pool.snapshot(),
        }

    # ------------------------------------------------------------------
    # The run endpoint.
    # ------------------------------------------------------------------

    async def _handle_run(self, body: bytes, writer) -> None:
        try:
            envelope = json.loads(body or b"{}")
            if not isinstance(envelope, dict) or "spec" not in envelope:
                raise SpecError("request body must be {'spec': {...}, ...}")
            spec = ProgramSpec.from_dict(envelope["spec"])
            # Validate the config at the boundary: strict unknown-field
            # errors belong in the 400, not in a pool thread's traceback.
            _check_request_config(spec.run_config())
        except (SpecError, ValueError, TypeError, json.JSONDecodeError) as exc:
            self.metrics.counter("requests_rejected").inc()
            wire = exc.to_wire() if isinstance(exc, ServeError) else {
                "type": type(exc).__name__,
                "message": str(exc),
            }
            await _respond_json(writer, 400, {"error": wire})
            return

        tenant = str(envelope.get("tenant", "default"))
        request_id = str(
            envelope.get("request_id") or f"req-{next(self._request_ids)}"
        )
        self.metrics.counter("requests_total", tenant=tenant).inc()

        # --- admission: tenant budget first, then the shared queue -----
        try:
            policy = self.tenants.admit(tenant)
        except AdmissionError as exc:
            self.metrics.counter("requests_shed", tenant=tenant).inc()
            self.metrics.counter("tenant_rejections", tenant=tenant).inc()
            await _respond_json(writer, exc.http_status, {"error": exc.to_wire()})
            return

        key = spec.payload_key()
        leader = self._inflight.get(key)
        if leader is None:
            try:
                self.pool.try_acquire()
            except AdmissionError as exc:
                self.tenants.release(tenant)
                self.metrics.counter("requests_shed", tenant=tenant).inc()
                await _respond_json(
                    writer, exc.http_status, {"error": exc.to_wire()}
                )
                return
            await self._lead_run(
                spec, envelope, tenant, policy, request_id, key, writer
            )
        else:
            self.metrics.counter("coalesced_requests", tenant=tenant).inc()
            await self._follow_run(leader, tenant, request_id, writer)

    async def _lead_run(
        self, spec, envelope, tenant, policy, request_id, key, writer
    ) -> None:
        """Execute the spec on the pool and stream events; publish the
        outcome to any coalesced followers."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        samples: asyncio.Queue = asyncio.Queue()
        tag = f"{tenant}/{request_id}"
        stream_metrics_s = envelope.get("stream_metrics_s")
        return_result = bool(envelope.get("return_result", True))

        def push_sample(sample: dict) -> None:
            # Called from the MetricsSampler thread inside the run.
            loop.call_soon_threadsafe(samples.put_nowait, sample)

        job = _RunJob(
            server=self,
            spec=spec,
            policy=policy,
            tag=tag,
            metrics_interval_s=stream_metrics_s,
            metrics_sink=push_sample if stream_metrics_s else None,
            return_result=return_result,
        )

        await _start_ndjson(writer)
        await _write_event(
            writer,
            {
                "event": "accepted",
                "request_id": request_id,
                "tenant": tenant,
                "role": "leader",
            },
        )

        started = time.perf_counter()
        run_task = asyncio.ensure_future(self.pool.run(job))
        try:
            while True:
                sample_task = asyncio.ensure_future(samples.get())
                done, _pending = await asyncio.wait(
                    {run_task, sample_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if sample_task in done:
                    await _write_event(
                        writer,
                        {"event": "sample", "sample": sample_task.result()},
                    )
                else:
                    sample_task.cancel()
                if run_task in done:
                    break
            # Flush samples that beat the summary to the queue.
            while not samples.empty():
                await _write_event(
                    writer, {"event": "sample", "sample": samples.get_nowait()}
                )
            try:
                outcome = run_task.result()
            except Exception as exc:  # simulation/host failure → event
                outcome = {"error": _error_wire(exc)}
            elapsed = time.perf_counter() - started
            outcome.setdefault("request_id", request_id)
            if "error" in outcome:
                self.metrics.counter("runs_failed", tenant=tenant).inc()
                await _write_event(
                    writer, {"event": "error", **outcome}
                )
            else:
                self.metrics.counter("runs_ok", tenant=tenant).inc()
                self.metrics.histogram("run_seconds", tenant=tenant).observe(
                    elapsed
                )
                await _write_event(writer, {"event": "summary", **outcome})
        finally:
            elapsed = time.perf_counter() - started
            self._inflight.pop(key, None)
            self.pool.release()
            self.tenants.release(tenant, seconds=elapsed)
            if not future.done():
                if run_task.done() and run_task.exception() is not None:
                    future.set_exception(run_task.exception())
                    # Followers consume it; silence "never retrieved".
                    future.exception()
                elif run_task.done():
                    future.set_result(run_task.result())
                else:  # pragma: no cover - cancelled mid-write
                    future.cancel()

    async def _follow_run(self, leader, tenant, request_id, writer) -> None:
        """A coalesced request: await the leader's outcome, charging this
        tenant nothing — the compute already happened once."""
        await _start_ndjson(writer)
        await _write_event(
            writer,
            {
                "event": "accepted",
                "request_id": request_id,
                "tenant": tenant,
                "role": "follower",
            },
        )
        try:
            outcome = await asyncio.shield(leader)
        except Exception as exc:
            self.metrics.counter("runs_failed", tenant=tenant).inc()
            await _write_event(
                writer,
                {"event": "error", "error": _error_wire(exc), "request_id": request_id},
            )
        else:
            self.metrics.counter("runs_ok", tenant=tenant).inc()
            payload = dict(outcome)
            payload["request_id"] = request_id
            payload["coalesced"] = True
            await _write_event(writer, {"event": "summary", **payload})
        finally:
            self.tenants.release(tenant, seconds=0.0)


class _RunJob:
    """The synchronous build-and-run job executed on a pool thread."""

    def __init__(
        self,
        server: SimServer,
        spec: ProgramSpec,
        policy: TenantPolicy,
        tag: str,
        metrics_interval_s: Optional[float],
        metrics_sink,
        return_result: bool,
    ):
        self.server = server
        self.spec = spec
        self.policy = policy
        self.tag = tag
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        self.return_result = return_result

    def __call__(self) -> dict[str, Any]:
        from ..sam.spec import encode_tensor

        spec = self.spec
        executor = (
            self.server.config.executor_override or spec.executor
        )
        built = spec.build()
        program = built.program if hasattr(built, "program") else built

        config = self.policy.clamp(spec.run_config()).replace(tag=self.tag)
        if self.metrics_interval_s:
            config = config.replace(
                metrics_interval_s=float(self.metrics_interval_s),
                metrics_sink=self.metrics_sink,
            )

        plan_key = PlanCache.key_for(spec.shape_key(), executor, config.workers)
        plan = self.server.plan_cache.lookup(plan_key)
        if plan is not None:
            config = plan.apply(program, config)
        self.server.metrics.counter(
            "plan_cache_hits" if plan is not None else "plan_cache_misses"
        ).inc()

        summary = program.run(executor, config=config)
        if plan is None:
            self.server.plan_cache.learn(plan_key, program, summary)

        outcome: dict[str, Any] = {
            "summary": summary.to_dict(),
            "plan": "hit" if plan is not None else "miss",
        }
        if self.return_result and hasattr(built, "result_dense"):
            outcome["result"] = encode_tensor(built.result_dense())
        return outcome


def _check_request_config(config) -> None:
    """Refuse the wire config fields that spend the *server's* resources
    beyond a run slot: ``checkpoint_path`` makes the server create a
    directory and write epoch files wherever the client says, and
    ``workers`` forks one process per non-empty partition group."""
    if config.checkpoint_path is not None:
        raise SpecError(
            "config.checkpoint_path is not accepted from the wire: a "
            "served run may not write to a client-chosen directory"
        )
    cpus = os.cpu_count() or 1
    if config.workers is not None and config.workers > cpus:
        raise SpecError(
            f"config.workers={config.workers} exceeds this server's "
            f"{cpus} CPU(s)"
        )


def _error_wire(exc: BaseException) -> dict[str, Any]:
    if isinstance(exc, ServeError):
        return exc.to_wire()
    if isinstance(exc, (DamError, SpecError)):
        return {"type": type(exc).__name__, "message": str(exc)}
    return {"type": type(exc).__name__, "message": repr(exc)}


# ----------------------------------------------------------------------
# HTTP plumbing.
# ----------------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


async def _respond_json(
    writer, status: int, payload: dict[str, Any], close: bool = True
) -> None:
    body = json.dumps(payload).encode()
    connection = "close" if close else "keep-alive"
    writer.write(
        (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode()
    )
    writer.write(body)
    await writer.drain()


async def _start_ndjson(writer) -> None:
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n\r\n"
    )
    await writer.drain()


async def _write_event(writer, event: dict[str, Any]) -> None:
    writer.write(json.dumps(event).encode() + b"\n")
    await writer.drain()


# ----------------------------------------------------------------------
# Embedding helpers.
# ----------------------------------------------------------------------


class ServerHandle:
    """A running server on a background thread (tests, notebooks)."""

    def __init__(self, server: SimServer, loop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        )
        future.result(timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)


def start_in_thread(config: Optional[ServeConfig] = None) -> ServerHandle:
    """Start a :class:`SimServer` on a fresh event loop in a daemon
    thread and return a handle with its bound address."""
    started = threading.Event()
    holder: dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = SimServer(config)
        loop.run_until_complete(server.start())
        holder["server"] = server
        holder["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30.0):  # pragma: no cover - startup hang
        raise RuntimeError("serve thread failed to start")
    return ServerHandle(holder["server"], holder["loop"], thread)


def serve(config: Optional[ServeConfig] = None, **overrides: Any) -> None:
    """Run a server in the foreground until interrupted (the CLI path).

    ``overrides`` are :class:`ServeConfig` fields applied on top of
    ``config`` — ``serve(port=8750, max_concurrent=4)`` just works.
    """
    import dataclasses

    config = config or ServeConfig()
    if overrides:
        config = dataclasses.replace(config, **overrides)

    async def main() -> None:
        server = SimServer(config)
        host, port = await server.start()
        print(f"repro.serve listening on http://{host}:{port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass
        finally:
            await server.shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
