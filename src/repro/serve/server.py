"""The asyncio HTTP/1.1 front end of the solve service.

Zero-dependency by design: a hand-rolled request parser over
``asyncio.start_server`` (request line + headers + ``Content-Length``
body), a small route table, JSON responses with explicit lengths, and
chunked transfer encoding for the progress stream.  The event loop
never runs a solve — jobs go to the :class:`~repro.serve.jobs.JobTable`
worker pool and completion is signalled back with
``loop.call_soon_threadsafe`` — so health checks, polling and
cancellation stay interactive while every worker is busy.

Overload and failure semantics (see ``docs/API.md``):

* every non-2xx body is one ``repro-error/v1`` envelope
  (:func:`repro.serve.errors.error_body`); 429/503 also carry a
  ``Retry-After`` header;
* reads of the request head/body are bounded by
  ``read_timeout_seconds`` (slow-loris defense → 408 + close) and every
  response/stream write by ``write_timeout_seconds`` (a stalled client
  gets its connection aborted rather than pinning buffers);
* responses that prove the connection framing is still intact
  (400/404/405/409) keep the connection alive so a pipelined follow-up
  request still works; timeouts, overload and server errors close it;
* SIGTERM (or :meth:`SolveServer.drain_and_stop`) drains: new solves
  get 503 + ``Retry-After``, in-flight jobs finish within the grace
  budget as valid best-so-far results, stragglers are cancelled at the
  next round boundary (persisting drain checkpoints when configured).

Tracing: every request carries a W3C trace id (the ``traceparent``
header or body field when the client sends one — malformed headers are
ignored per the spec's restart semantics — else freshly generated).
The id is stamped into job envelopes, streaming records and error
envelopes; the stitched per-request trace (``serve.request`` >
``serve.queue_wait`` + ``job.solve`` > solver spans) is served as
``repro-trace/v2`` JSONL at ``GET /v1/jobs/<id>/trace``.  Finished
traces also feed the always-on flight recorder; 5xx responses, sheds,
drain start, health transitions to ``overloaded`` and p99 breaches
dump the last window to ``--flight-dir`` (debounced).

Endpoints (see ``docs/API.md`` for schemas and curl examples)::

    GET    /v1/health       liveness + load state + queue stats
    GET    /v1/solvers      registry catalog and datasets
    POST   /v1/solve        run a solve (sync, async or streaming)
    GET    /v1/jobs         job summaries (newest last)
    GET    /v1/jobs/<id>    one job envelope (result when finished)
    GET    /v1/jobs/<id>/trace  the job's repro-trace/v2 JSONL
    DELETE /v1/jobs/<id>    cooperative cancellation
    GET    /v1/instances    LRU instance-store statistics
    POST   /v1/debug/flight force a flight-recorder dump
    GET    /metrics         Prometheus text exposition
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.core.registry import solver_catalog
from repro.errors import ConfigurationError
from repro.obs.context import TRACEPARENT_HEADER, parse_traceparent
from repro.obs.exporters import jsonl_lines, prometheus_text
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.serve.config import ServeConfig
from repro.serve.errors import error_body
from repro.serve.jobs import (
    AdmissionRejected,
    Job,
    JobTable,
    ServiceDraining,
)
from repro.serve.store import InstanceStore
from repro.serve.wire import API_VERSION, INSTANCE_DATASETS, SolveRequest

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Default ``repro-error/v1`` code per status (overridable per raise).
_DEFAULT_CODES = {
    400: "invalid_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "timeout",
    409: "already_finished",
    413: "payload_too_large",
    429: "queue_full",
    500: "internal",
    503: "draining",
}

#: Statuses that leave the HTTP/1.1 framing intact: the request was
#: fully read and the response fully framed, so the connection can keep
#: serving pipelined/keep-alive requests.  Timeouts (the stream position
#: is unknown), overload pushback and server errors close instead.
_KEEP_ALIVE_STATUSES = frozenset({400, 404, 405, 409})

_MAX_HEADER_BYTES = 64 * 1024


class _ProgressSink:
    """Thread-safe bridge from worker-thread progress to the loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()

    def publish(self, record: Optional[Dict[str, Any]]) -> None:
        self._loop.call_soon_threadsafe(self.queue.put_nowait, record)


class HttpError(Exception):
    """One non-2xx response: status + ``repro-error/v1`` body pieces."""

    def __init__(
        self,
        status: int,
        message: str,
        code: Optional[str] = None,
        retry_after_seconds: Optional[float] = None,
        field: Optional[str] = None,
        job: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code or _DEFAULT_CODES.get(status, "internal")
        self.retry_after_seconds = retry_after_seconds
        self.field = field
        self.job = job
        self.trace_id = trace_id


def _field_of(message: str) -> Optional[str]:
    """The validation field path of a ConfigurationError, if any.

    Wire validation errors are uniformly ``request[...]: detail`` —
    the prefix becomes the envelope's machine-readable ``field``.
    """
    head, sep, _ = message.partition(": ")
    if sep and head.startswith("request") and " " not in head:
        return head
    return None


class SolveServer:
    """One serving process: HTTP front end + job table + stores."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.store = InstanceStore(max_instances=self.config.max_instances)
        #: Always-on flight recorder (None with tracing disabled).  The
        #: ring records regardless of ``flight_dir``; dumps only land on
        #: disk once a directory is configured.
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(
                window_seconds=self.config.flight_window_seconds,
                max_records=self.config.flight_max_records,
                debounce_seconds=self.config.flight_debounce_seconds,
                directory=self.config.flight_dir,
                registry=self.registry,
            )
            if self.config.trace_requests
            else None
        )
        self.jobs = JobTable(
            store=self.store,
            registry=self.registry,
            pool_size=self.config.pool_size,
            max_jobs=self.config.max_jobs,
            max_queue=self.config.max_queue,
            admission_policy=self.config.admission_policy,
            interactive_weight=self.config.interactive_weight,
            default_deadline_seconds=self.config.default_deadline_seconds,
            drain_grace_seconds=self.config.drain_grace_seconds,
            drain_checkpoint_dir=self.config.drain_checkpoint_dir,
            trace_requests=self.config.trace_requests,
            flight=self.flight,
        )
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._last_health_status: Optional[str] = None
        self._p99_breached = False

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral one)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.started_at = time.time()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.jobs.shutdown(wait=True)

    async def drain_and_stop(
        self, grace_seconds: Optional[float] = None
    ) -> None:
        """Graceful shutdown: 503 new work, degrade in-flight, stop.

        The draining flag flips immediately (so the very next
        ``POST /v1/solve`` is refused) while the event loop keeps
        serving polls, streams and the blocking wait of in-flight
        requests; the grace wait itself runs in an executor thread.
        """
        self.jobs.drain(grace_seconds, wait=False)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.jobs.drain(grace_seconds, wait=True)
        )
        await self.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        host, port = self.config.host, self.port
        print(f"repro serve: listening on http://{host}:{port}/{API_VERSION}")
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except HttpError as exc:
                    await self._write_error(writer, exc)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = await self._dispatch(
                    writer, method, path, headers, body
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels idle keep-alive handlers; ending the
            # task normally keeps asyncio's stream callback (which
            # calls task.exception()) from spraying tracebacks.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        timeout = self.config.read_timeout_seconds
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout
            )
        except asyncio.LimitOverrunError:
            raise HttpError(413, "request head too large")
        except asyncio.TimeoutError:
            # Slow-loris (or an idle keep-alive connection): either way
            # the client gets a parting 408 and the connection closes.
            self.registry.counter("serve.timeouts", {"kind": "read"}).inc()
            raise HttpError(
                408,
                f"timed out reading request head after {timeout:g}s",
            )
        if len(head) > _MAX_HEADER_BYTES:
            raise HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise HttpError(400, "malformed Content-Length")
        if length > self.config.max_body_bytes:
            raise HttpError(
                413,
                f"request body exceeds {self.config.max_body_bytes} bytes",
            )
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout
                )
            except asyncio.TimeoutError:
                self.registry.counter(
                    "serve.timeouts", {"kind": "read"}
                ).inc()
                raise HttpError(
                    408,
                    f"timed out reading request body after {timeout:g}s",
                )
        else:
            body = b""
        return method.upper(), target, headers, body

    async def _drain_guarded(self, writer: asyncio.StreamWriter) -> None:
        """``writer.drain()`` with the stalled-client guard.

        A subscriber that stops reading (dead TCP peer, black-holed
        route) would otherwise park the handler in ``drain()`` forever
        with the job's buffers pinned.  Past the write timeout the
        connection is aborted — for streams the caller's
        ``ConnectionResetError`` path then cancels the job.
        """
        try:
            await asyncio.wait_for(
                writer.drain(), self.config.write_timeout_seconds
            )
        except asyncio.TimeoutError:
            self.registry.counter("serve.timeouts", {"kind": "write"}).inc()
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise ConnectionResetError(
                "write stalled past "
                f"{self.config.write_timeout_seconds:g}s; connection aborted"
            )

    async def _write_error(
        self, writer: asyncio.StreamWriter, error: HttpError
    ) -> bool:
        """One ``repro-error/v1`` response; returns keep-alive."""
        keep_alive = error.status in _KEEP_ALIVE_STATUSES
        if error.status >= 500 and self.flight is not None:
            # Any 5xx is a flight trigger: the failing request's trace
            # was ringed before the job finished, so the (debounced)
            # dump contains its spans.
            self.flight.trigger(
                f"http_{error.status}",
                detail=f"{error.code}: {error.message}",
                trace_id=error.trace_id,
            )
        payload = error_body(
            error.status,
            error.code,
            error.message,
            retry_after_seconds=error.retry_after_seconds,
            field=error.field,
            job=error.job,
            trace_id=error.trace_id,
        )
        headers = {}
        if error.retry_after_seconds is not None:
            headers["Retry-After"] = str(
                max(1, math.ceil(error.retry_after_seconds))
            )
        await self._write_json(
            writer,
            error.status,
            payload,
            keep_alive=keep_alive,
            extra_headers=headers,
        )
        return keep_alive

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        await self._write_raw(
            writer, status, body, "application/json", keep_alive,
            extra_headers,
        )

    async def _write_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        keep_alive: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await self._drain_guarded(writer)

    # -- routing --------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> bool:
        path, _, query = target.partition("?")
        self.registry.counter(
            "serve.http_requests", {"method": method}
        ).inc()
        try:
            if path == "/metrics" and method == "GET":
                text = prometheus_text(self.registry)
                await self._write_raw(
                    writer, 200, text.encode(), "text/plain; version=0.0.4"
                )
                return True
            if path == f"/{API_VERSION}/health" and method == "GET":
                await self._write_json(writer, 200, self._health())
                return True
            if path == f"/{API_VERSION}/solvers" and method == "GET":
                await self._write_json(
                    writer,
                    200,
                    {
                        "solvers": solver_catalog(),
                        "datasets": list(INSTANCE_DATASETS),
                    },
                )
                return True
            if path == f"/{API_VERSION}/instances" and method == "GET":
                await self._write_json(writer, 200, self.store.stats())
                return True
            if path == f"/{API_VERSION}/solve":
                if method != "POST":
                    raise HttpError(405, "POST only")
                return await self._handle_solve(writer, headers, body)
            if path == f"/{API_VERSION}/debug/flight":
                if method != "POST":
                    raise HttpError(405, "POST only")
                return await self._handle_flight_dump(writer)
            if path == f"/{API_VERSION}/jobs" and method == "GET":
                await self._write_json(
                    writer,
                    200,
                    {
                        "jobs": [
                            self._job_summary(job) for job in self.jobs.jobs()
                        ]
                    },
                )
                return True
            if path.startswith(f"/{API_VERSION}/jobs/"):
                job_id = path[len(f"/{API_VERSION}/jobs/"):]
                if job_id.endswith("/trace"):
                    if method != "GET":
                        raise HttpError(405, "GET only")
                    return await self._handle_job_trace(
                        writer, job_id[: -len("/trace")]
                    )
                return await self._handle_job(writer, method, job_id, query)
            raise HttpError(404, f"no route for {method} {path}")
        except HttpError as exc:
            return await self._write_error(writer, exc)
        except AdmissionRejected as exc:
            return await self._write_error(
                writer,
                HttpError(
                    429,
                    exc.message,
                    code="queue_full",
                    retry_after_seconds=exc.retry_after_seconds,
                ),
            )
        except ServiceDraining as exc:
            return await self._write_error(
                writer,
                HttpError(
                    503,
                    exc.message,
                    code="draining",
                    retry_after_seconds=exc.retry_after_seconds,
                ),
            )
        except ConfigurationError as exc:
            return await self._write_error(
                writer,
                HttpError(400, str(exc), field=_field_of(str(exc))),
            )
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 - connection boundary
            import traceback

            traceback.print_exc()
            return await self._write_error(
                writer, HttpError(500, f"{type(exc).__name__}: {exc}")
            )

    def _health(self) -> Dict[str, Any]:
        """Liveness plus the load state a balancer routes on.

        ``ok`` → ``degraded`` (queue half full, or recent p99 past the
        configured bound) → ``overloaded`` (queue at its bound; new work
        is being rejected or shed) → ``draining`` (shutting down).
        """
        depth = self.jobs.queue.depth()
        p99 = self.jobs.recent_p99_ms()
        if self.jobs.draining:
            status = "draining"
        elif depth >= self.config.max_queue:
            status = "overloaded"
        elif depth >= max(1, self.config.max_queue // 2) or (
            self.config.health_p99_ms is not None
            and p99 is not None
            and p99 > self.config.health_p99_ms
        ):
            status = "degraded"
        else:
            status = "ok"
        payload: Dict[str, Any] = {
            "status": status,
            "version": __version__,
            "api": API_VERSION,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "pool_size": self.config.pool_size,
            "jobs": len(self.jobs.jobs()),
            "running": self.jobs.running_count(),
            "draining": self.jobs.draining,
            "queue": self.jobs.queue.stats(),
        }
        if p99 is not None:
            payload["recent_p99_ms"] = p99
        if self.flight is not None:
            if (
                status == "overloaded"
                and self._last_health_status != "overloaded"
            ):
                self.flight.trigger(
                    "overloaded", detail=f"queue depth {depth}"
                )
            breach = (
                self.config.health_p99_ms is not None
                and p99 is not None
                and p99 > self.config.health_p99_ms
            )
            if breach and not self._p99_breached:
                self.flight.trigger(
                    "p99_breach",
                    detail=(
                        f"recent p99 {p99:.1f}ms > "
                        f"{self.config.health_p99_ms:g}ms"
                    ),
                )
            self._p99_breached = breach
            self._last_health_status = status
        return payload

    @staticmethod
    def _job_summary(job: Job) -> Dict[str, Any]:
        return {
            "job": job.id,
            "state": job.state,
            "trace_id": job.trace_id,
            "solver": job.request.solver,
            "priority": job.request.priority,
            "created": job.created,
        }

    # -- solve ----------------------------------------------------------
    async def _handle_solve(
        self,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        body: bytes,
    ) -> bool:
        try:
            payload = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        request = SolveRequest.from_dict(payload)
        # The body-level traceparent (already parsed into the request)
        # beats the header; a malformed *header* restarts the trace per
        # the W3C spec instead of failing the request.
        trace_id = parse_traceparent(headers.get(TRACEPARENT_HEADER))

        if request.stream:
            return await self._handle_solve_stream(writer, request, trace_id)

        job = self.jobs.submit(request, trace_id=trace_id)
        if not request.wait:
            await self._write_json(
                writer,
                202,
                {"job": job.id, "state": job.state, "trace_id": job.trace_id},
            )
            return True
        await self._wait_for(job)
        if job.state == "shed":
            raise HttpError(
                503,
                job.error or "request shed under overload",
                code="shed",
                retry_after_seconds=self.jobs.retry_after_seconds(),
                job=job.id,
                trace_id=job.trace_id,
            )
        if job.error is not None:
            raise HttpError(
                500,
                job.error,
                code="solve_failed",
                job=job.id,
                trace_id=job.trace_id,
            )
        await self._write_json(writer, 200, job.to_dict())
        return True

    async def _handle_solve_stream(
        self,
        writer: asyncio.StreamWriter,
        request: SolveRequest,
        trace_id: Optional[str] = None,
    ) -> bool:
        """Chunked JSONL: a job record, round records, the final result.

        The job is admitted *before* the 200 head goes out — an
        admission rejection must surface as a real 429/503, not a
        truncated stream.  Early progress published while the head is
        in flight just queues in the sink.
        """
        sink = _ProgressSink(asyncio.get_running_loop())
        job = self.jobs.submit(request, sink=sink, trace_id=trace_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head)
            await self._drain_guarded(writer)
            await self._write_chunk(
                writer,
                {
                    "type": "job",
                    "job": job.id,
                    "state": job.state,
                    "trace_id": job.trace_id,
                },
            )
            while True:
                record = await sink.queue.get()
                await self._write_chunk(writer, record)
                if record.get("type") in ("result", "error"):
                    break
            writer.write(b"0\r\n\r\n")
            await self._drain_guarded(writer)
        except (ConnectionResetError, BrokenPipeError):
            # Client went away mid-stream: cancel the solve so the
            # worker slot frees at the next round boundary.
            self.jobs.cancel(job.id)
        finally:
            # The stream is over either way — reap the subscriber so a
            # dead client never pins the sink (or its queue) on the job.
            job.unsubscribe(sink)
        return False  # Connection: close

    async def _write_chunk(
        self, writer: asyncio.StreamWriter, record: Dict[str, Any]
    ) -> None:
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await self._drain_guarded(writer)

    async def _wait_for(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        event = asyncio.Event()
        job.add_done_callback(
            lambda: loop.call_soon_threadsafe(event.set)
        )
        await event.wait()

    # -- jobs -----------------------------------------------------------
    async def _handle_job(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        job_id: str,
        query: str,
    ) -> bool:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        if method == "GET":
            include = "assignment=1" in query or "assignment=true" in query
            await self._write_json(
                writer, 200, job.to_dict(include_assignment=include)
            )
            return True
        if method == "DELETE":
            already_done = job.wait(0)
            self.jobs.cancel(job_id)
            if already_done:
                raise HttpError(
                    409,
                    f"job {job_id} already finished (state {job.state!r})",
                    code="already_finished",
                    job=job.id,
                )
            await self._write_json(writer, 202, job.to_dict())
            return True
        raise HttpError(405, "GET or DELETE only")

    async def _handle_job_trace(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> bool:
        """``GET /v1/jobs/<id>/trace``: the job's ``repro-trace/v2`` JSONL.

        The trace is only served once the job finished — a live recorder
        is still being mutated by the worker thread, so an early read
        would race it.  Poll the job state first, then fetch the trace.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        if job.recorder is None:
            raise HttpError(
                404,
                f"job {job_id} has no trace (server started with "
                "tracing disabled)",
                code="trace_unavailable",
                job=job.id,
                trace_id=job.trace_id,
            )
        if not job.wait(0):
            raise HttpError(
                409,
                f"job {job_id} not finished (state {job.state!r}); "
                "trace still recording",
                code="trace_pending",
                job=job.id,
                trace_id=job.trace_id,
            )
        body = ("\n".join(jsonl_lines(job.recorder)) + "\n").encode()
        await self._write_raw(writer, 200, body, "application/x-ndjson")
        return True

    async def _handle_flight_dump(self, writer: asyncio.StreamWriter) -> bool:
        """``POST /v1/debug/flight``: force a flight-recorder dump now."""
        if self.flight is None:
            raise HttpError(
                409,
                "flight recorder disabled (server started with --no-trace)",
                code="flight_disabled",
            )
        if self.flight.directory is None:
            raise HttpError(
                409,
                "flight recorder has nowhere to write "
                "(start the server with --flight-dir)",
                code="flight_disabled",
            )
        dump = self.flight.trigger("manual", force=True)
        await self._write_json(writer, 200, dump.to_dict())
        return True


def run(config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point (``repro serve``).

    SIGTERM triggers a graceful drain (503 new work, grace budget for
    in-flight solves, drain checkpoints when configured); SIGINT/Ctrl-C
    stops abruptly as before.
    """
    server = SolveServer(config)

    async def _main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without signal-handler support
        serve_task = asyncio.create_task(server.serve_forever())
        drain_task = asyncio.create_task(sigterm.wait())
        done, _ = await asyncio.wait(
            {serve_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if drain_task in done:
            grace = server.config.drain_grace_seconds
            print(f"repro serve: SIGTERM, draining (grace {grace:g}s)")
            await server.drain_and_stop()
            serve_task.cancel()
        for task in (serve_task, drain_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("repro serve: interrupted, shutting down")
    finally:
        server.jobs.shutdown(wait=False)
