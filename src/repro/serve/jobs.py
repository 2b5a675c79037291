"""The job table: bounded admission queue + worker pool over ``partition()``.

Every ``POST /v1/solve`` becomes a :class:`Job`: a per-request
:class:`~repro.runtime.CancelToken` (``DELETE /v1/jobs/<id>`` cancels
cooperatively at the next round boundary), the request's deadline
composed into a :class:`~repro.runtime.RuntimeBudget` the table keeps a
handle on (so a graceful drain can tighten it mid-solve), and a
:class:`RequestRecorder` whose per-round telemetry hook feeds both the
chunked progress stream and the server-wide metrics registry scraped at
``/metrics``.

Overload protection is explicit, not emergent: the
:class:`AdmissionQueue` bounds *queued* work (``max_queue``), applies a
configurable full-queue policy (``reject`` → 429 with ``Retry-After``;
``shed-expired`` → drop queued requests whose deadline already elapsed
while waiting, finishing them as ``stop_reason="shed"``), and dequeues
``interactive`` ahead of ``batch`` traffic at a configured weight.  The
previous design queued unboundedly inside a thread-pool executor —
under sustained overload ``_jobs``/``_order`` grew without limit because
only *finished* jobs were ever evicted.

Interrupted solves are *normal* results here (``stop_reason`` of
``"deadline"``/``"cancelled"`` with a valid best-so-far assignment): the
runtime layer's anytime guarantee is what makes load shedding and
graceful drain possible without ever returning an invalid assignment.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.context import new_trace_id
from repro.obs.exporters import trace_records
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import TraceRecorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.token import CancelToken
from repro.serve.store import InstanceStore
from repro.serve.wire import SolveRequest

#: Job lifecycle states.  ``cancelled`` and ``done`` both carry a valid
#: result; ``failed`` carries an error message; ``shed`` means the job
#: was dropped from the admission queue before a worker picked it up.
JOB_STATES = ("queued", "running", "done", "cancelled", "failed", "shed")

#: Request-latency histogram boundaries (milliseconds).
LATENCY_BOUNDARIES_MS = (
    0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 30_000, 60_000,
)

#: Hard cap on how long drain/shutdown wait for round boundaries after
#: cancelling stragglers — a deadlocked kernel must not hang shutdown.
_DRAIN_HARD_CAP_SECONDS = 30.0


class AdmissionRejected(Exception):
    """The admission queue is full; the request was not queued.

    Carries the machine-readable pieces of the 429 response: a retry
    hint (the server translates it into ``Retry-After``) and the bound
    that was hit.
    """

    def __init__(self, message: str, retry_after_seconds: float) -> None:
        super().__init__(message)
        self.message = message
        self.retry_after_seconds = retry_after_seconds


class ServiceDraining(Exception):
    """The server is draining; new work is refused with 503."""

    def __init__(self, message: str, retry_after_seconds: float) -> None:
        super().__init__(message)
        self.message = message
        self.retry_after_seconds = retry_after_seconds


class RequestRecorder(TraceRecorder):
    """Per-request trace recorder that also publishes round progress.

    The solver's own per-round telemetry call (PR 3's
    :meth:`Recorder.round_end`) is the progress feed: each round becomes
    one JSON record pushed to every subscriber of the job, so a
    streaming client watches the frontier drain live without any extra
    instrumentation in the kernels.
    """

    def __init__(self, job: "Job") -> None:
        super().__init__()
        self._job = job

    def round_end(
        self,
        span,
        solver: str,
        round_index: int,
        *,
        deviations: int,
        examined: int,
        cost_evaluations: Optional[int] = None,
        frontier_fn: Optional[Callable[[], int]] = None,
        potential_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        # Evaluate the lazy callables once and memoize, so the super
        # call does not pay for (or double-count) a second evaluation.
        frontier = int(frontier_fn()) if frontier_fn is not None else examined
        potential = float(potential_fn()) if potential_fn is not None else None
        super().round_end(
            span,
            solver,
            round_index,
            deviations=deviations,
            examined=examined,
            cost_evaluations=cost_evaluations,
            frontier_fn=(lambda: frontier) if frontier_fn is not None else None,
            potential_fn=(
                (lambda: potential) if potential_fn is not None else None
            ),
        )
        record: Dict[str, Any] = {
            "type": "round",
            "job": self._job.id,
            "solver": solver,
            "round": round_index,
            "deviations": deviations,
            "players_examined": examined,
            "frontier": frontier,
        }
        if potential is not None:
            record["potential"] = potential
        self._job.publish(record)


class Job:
    """One solve request moving through the admission queue and pool.

    Every job carries a W3C trace id — the request's own (body
    ``traceparent`` beats the HTTP header) or a fresh random one — even
    with tracing disabled, so envelopes and streams are always
    correlatable.  With tracing enabled the table also attaches a
    :class:`RequestRecorder` at admission whose span tree
    (``serve.request`` > ``serve.queue_wait`` + ``job.solve`` > solver
    spans) backs ``GET /v1/jobs/<id>/trace`` and the flight recorder.
    """

    def __init__(
        self,
        job_id: str,
        request: SolveRequest,
        trace_id: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.request = request
        self.trace_id = request.trace_id or trace_id or new_trace_id()
        #: Set at admission when the table traces requests; retained
        #: after the job finishes for the trace endpoint.
        self.recorder: Optional["RequestRecorder"] = None
        self.queue_wait_seconds: Optional[float] = None
        self._request_span = None
        self._queue_span = None
        self.token = CancelToken()
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.result = None  # PartitionResult
        self.error: Optional[str] = None
        self.cache_hit: Optional[bool] = None
        self.cancel_requested = False
        #: The live runtime budget, set when a worker picks the job up.
        #: A drain tightens its deadline so the solve degrades in place.
        self.budget: Optional[RuntimeBudget] = None
        #: Per-job checkpoint path (set when the table is configured
        #: with a drain checkpoint dir); ``checkpoint_persisted`` marks
        #: that a drain kept the file for a post-restart resume.
        self.checkpoint_path: Optional[str] = None
        self.checkpoint_persisted = False
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._done_callbacks: List[Callable[[], None]] = []
        self._subscribers: List[Any] = []

    # -- progress -------------------------------------------------------
    def subscribe(self, sink: Any) -> None:
        """Attach a progress sink (``sink.publish(record)``, thread-safe)."""
        with self._lock:
            self._subscribers.append(sink)

    def unsubscribe(self, sink: Any) -> None:
        """Detach a sink (dead-subscriber reaping; unknown sinks ignored)."""
        with self._lock:
            try:
                self._subscribers.remove(sink)
            except ValueError:
                pass

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def publish(self, record: Dict[str, Any]) -> None:
        record.setdefault("trace_id", self.trace_id)
        with self._lock:
            sinks = list(self._subscribers)
        for sink in sinks:
            sink.publish(record)

    # -- completion -----------------------------------------------------
    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the job finishes (immediately if it has).

        Called from the worker thread that finishes the job — callbacks
        must be cheap and thread-safe (the server passes
        ``loop.call_soon_threadsafe`` trampolines).
        """
        with self._lock:
            if not self._done.is_set():
                self._done_callbacks.append(callback)
                return
        callback()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def _finish(self, state: str, result=None, error: Optional[str] = None) -> None:
        with self._lock:
            self.state = state
            self.result = result
            self.error = error
            self.finished = time.time()
            self._done.set()
            callbacks = list(self._done_callbacks)
            self._done_callbacks.clear()
        for callback in callbacks:
            callback()

    # -- wire form ------------------------------------------------------
    def to_dict(self, include_assignment: bool = False) -> Dict[str, Any]:
        """The job envelope of ``GET /v1/jobs/<id>``."""
        with self._lock:
            payload: Dict[str, Any] = {
                "job": self.id,
                "state": self.state,
                "trace_id": self.trace_id,
                "request": self.request.summary(),
                "created": self.created,
            }
            if self.started is not None:
                payload["started"] = self.started
            if self.finished is not None:
                payload["finished"] = self.finished
                payload["wall_seconds"] = self.finished - self.created
            if self.cache_hit is not None:
                payload["instance_cache_hit"] = self.cache_hit
            if self.cancel_requested:
                payload["cancel_requested"] = True
            if self.state == "shed":
                payload["stop_reason"] = "shed"
            if self.checkpoint_persisted and self.checkpoint_path is not None:
                payload["checkpoint"] = self.checkpoint_path
            if self.result is not None:
                payload["result"] = self.result.to_dict(
                    include_assignment=include_assignment
                    or self.request.include_assignment
                )
            if self.error is not None:
                payload["error"] = self.error
            return payload


class _Entry:
    """One queued job plus its admission-time deadline bookkeeping."""

    __slots__ = ("job", "enqueued_at", "expires_at")

    def __init__(
        self, job: Job, enqueued_at: float, expires_at: Optional[float]
    ) -> None:
        self.job = job
        self.enqueued_at = enqueued_at
        self.expires_at = expires_at


class AdmissionQueue:
    """Bounded two-class FIFO with weighted dequeue and load shedding.

    ``offer`` admits a job or raises :class:`AdmissionRejected` — the
    queue can never hold more than ``max_queue`` entries, which is the
    invariant that keeps the job table bounded under sustained overload.
    Under the ``shed-expired`` policy, a full queue first drops entries
    whose request deadline already elapsed while they waited (the client
    has necessarily given up on them), and ``take`` skips expired
    entries instead of burning a worker slot on them.

    Dequeue is weighted: with both classes non-empty, ``weight``
    interactive jobs are taken per batch job, so batch backfill cannot
    starve interactive traffic (and vice versa — batch always gets its
    1-in-``weight+1`` turn).
    """

    def __init__(
        self,
        max_queue: int,
        policy: str = "reject",
        interactive_weight: int = 4,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_queue = max_queue
        self.policy = policy
        self.interactive_weight = interactive_weight
        self._clock = clock
        self._cond = threading.Condition()
        self._interactive: "deque[_Entry]" = deque()
        self._batch: "deque[_Entry]" = deque()
        self._credits = interactive_weight
        self._closed = False
        self.max_depth_seen = 0
        self.shed_total = 0

    def depth(self) -> int:
        with self._cond:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return len(self._interactive) + len(self._batch)

    def offer(
        self,
        job: Job,
        deadline_seconds: Optional[float],
        retry_after_seconds: float,
    ) -> List[Job]:
        """Admit ``job`` (returns jobs shed to make room) or reject it."""
        now = self._clock()
        expires = (
            now + deadline_seconds if deadline_seconds is not None else None
        )
        with self._cond:
            shed: List[Job] = []
            if self._depth_locked() >= self.max_queue and (
                self.policy == "shed-expired"
            ):
                shed = self._purge_expired_locked(now)
            if self._depth_locked() >= self.max_queue:
                raise AdmissionRejected(
                    f"admission queue is full "
                    f"({self._depth_locked()} queued, bound {self.max_queue})",
                    retry_after_seconds,
                )
            entry = _Entry(job, now, expires)
            if job.request.priority == "batch":
                self._batch.append(entry)
            else:
                self._interactive.append(entry)
            self.max_depth_seen = max(
                self.max_depth_seen, self._depth_locked()
            )
            self._cond.notify()
        return shed

    def _purge_expired_locked(self, now: float) -> List[Job]:
        shed: List[Job] = []
        for queue in (self._interactive, self._batch):
            kept = [
                entry for entry in queue
                if entry.expires_at is None or entry.expires_at > now
            ]
            if len(kept) != len(queue):
                shed.extend(
                    entry.job for entry in queue
                    if entry.expires_at is not None and entry.expires_at <= now
                )
                queue.clear()
                queue.extend(kept)
        self.shed_total += len(shed)
        return shed

    def take(self, timeout: float) -> Tuple[Optional[Job], List[Job]]:
        """Next job by weighted priority, plus any entries shed en route.

        Returns ``(None, shed)`` on timeout or once the queue is closed;
        callers must finalize the shed jobs (they never reach a worker).
        """
        with self._cond:
            end = self._clock() + timeout
            while True:
                entry, shed = self._pop_locked()
                if entry is not None or shed:
                    return (entry.job if entry else None, shed)
                if self._closed:
                    return None, []
                remaining = end - self._clock()
                if remaining <= 0:
                    return None, []
                self._cond.wait(remaining)

    def _pop_locked(self) -> Tuple[Optional[_Entry], List[Job]]:
        shed: List[Job] = []
        while True:
            has_interactive = bool(self._interactive)
            has_batch = bool(self._batch)
            if not has_interactive and not has_batch:
                return None, shed
            if has_interactive and (not has_batch or self._credits > 0):
                queue = self._interactive
            else:
                queue = self._batch
            if has_interactive and has_batch:
                if queue is self._interactive:
                    self._credits -= 1
                else:
                    self._credits = self.interactive_weight
            entry = queue.popleft()
            if (
                self.policy == "shed-expired"
                and entry.expires_at is not None
                and self._clock() >= entry.expires_at
            ):
                shed.append(entry.job)
                self.shed_total += 1
                continue
            return entry, shed

    def drain_all(self) -> List[Job]:
        """Remove and return every queued job (terminal shutdown path)."""
        with self._cond:
            jobs = [entry.job for entry in self._interactive]
            jobs += [entry.job for entry in self._batch]
            self._interactive.clear()
            self._batch.clear()
            return jobs

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "depth": self._depth_locked(),
                "interactive": len(self._interactive),
                "batch": len(self._batch),
                "max_queue": self.max_queue,
                "max_depth_seen": self.max_depth_seen,
                "policy": self.policy,
                "shed_total": self.shed_total,
            }


class JobTable:
    """Admission, execution, retention, cancellation and drain of jobs."""

    def __init__(
        self,
        store: InstanceStore,
        registry: MetricsRegistry,
        pool_size: int = 4,
        max_jobs: int = 256,
        max_queue: int = 64,
        admission_policy: str = "reject",
        interactive_weight: int = 4,
        default_deadline_seconds: Optional[float] = None,
        drain_grace_seconds: float = 5.0,
        drain_checkpoint_dir: Optional[str] = None,
        trace_requests: bool = True,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.store = store
        self.registry = registry
        self.pool_size = pool_size
        self.max_jobs = max_jobs
        self.default_deadline_seconds = default_deadline_seconds
        self.drain_grace_seconds = drain_grace_seconds
        self.drain_checkpoint_dir = drain_checkpoint_dir
        self.trace_requests = trace_requests
        self.flight = flight
        self.queue = AdmissionQueue(
            max_queue=max_queue,
            policy=admission_policy,
            interactive_weight=interactive_weight,
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._running: Dict[str, Job] = {}
        self._next_id = 0
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._latencies_ms: "deque[float]" = deque(maxlen=256)
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(pool_size)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle ------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def drain_remaining_seconds(self) -> float:
        """Seconds of grace left in the current drain (0 when elapsed)."""
        deadline = self._drain_deadline
        if deadline is None:
            return 0.0
        return max(0.0, deadline - time.monotonic())

    def submit(
        self,
        request: SolveRequest,
        sink: Any = None,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Admit a job or raise; ``sink`` (if given) is subscribed to
        progress records before the worker can start, so no round is
        missed.  ``trace_id`` (from the HTTP ``traceparent`` header) is
        adopted unless the request body pinned its own."""
        if self._draining or self._closed:
            raise ServiceDraining(
                "server is draining; retry against another replica",
                max(1.0, self.drain_remaining_seconds()),
            )
        with self._lock:
            job = Job(f"job-{self._next_id}", request, trace_id=trace_id)
            self._next_id += 1
        if self.trace_requests:
            # Open serve.request + serve.queue_wait *before* the queue
            # offer: queue wait is measured from admission, and the
            # worker thread inherits the open stack through the queue's
            # happens-before (each recorder is touched by exactly one
            # thread at a time).
            recorder = RequestRecorder(job)
            recorder.meta.update(
                {
                    "job": job.id,
                    "trace_id": job.trace_id,
                    "solver": request.solver,
                }
            )
            job.recorder = recorder
            job._request_span = recorder.open_span(
                "serve.request",
                job=job.id,
                solver=request.solver,
                priority=request.priority,
                trace_id=job.trace_id,
            )
            job._queue_span = recorder.open_span(
                "serve.queue_wait", job=job.id
            )
        if sink is not None:
            job.subscribe(sink)
        deadline = request.options.get("deadline_seconds")
        if deadline is None:
            deadline = self.default_deadline_seconds
        try:
            shed = self.queue.offer(job, deadline, self.retry_after_seconds())
        except AdmissionRejected:
            self.registry.counter(
                "serve.rejected", {"policy": self.queue.policy}
            ).inc()
            self._set_depth_gauge()
            raise
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._evict_finished_locked()
        for victim in shed:
            self._finish_shed(victim, "expired while queued under overload")
        self.registry.counter(
            "serve.requests", {"solver": request.solver}
        ).inc()
        self._set_depth_gauge()
        return job

    def _set_depth_gauge(self) -> None:
        self.registry.gauge("serve.queue_depth").set(self.queue.depth())

    def _evict_finished_locked(self) -> None:
        # Retain at most max_jobs entries; only finished jobs may go.
        # Queued entries are bounded by the admission queue and running
        # ones by the pool, so the table itself stays bounded by
        # max_jobs + max_queue + pool_size under any load.
        if len(self._order) <= self.max_jobs:
            return
        kept: List[str] = []
        excess = len(self._order) - self.max_jobs
        for job_id in self._order:
            job = self._jobs[job_id]
            if excess > 0 and job.state in (
                "done", "cancelled", "failed", "shed"
            ):
                del self._jobs[job_id]
                excess -= 1
            else:
                kept.append(job_id)
        self._order = kept

    def _finish_shed(self, job: Job, detail: str) -> None:
        """Finalize a job dropped from the queue (it never ran)."""
        message = f"shed before execution: {detail}"
        self.registry.counter("serve.shed").inc()
        self.registry.counter("serve.jobs", {"state": "shed"}).inc()
        if job.recorder is not None:
            job.recorder.event("serve.shed", job=job.id, detail=detail)
        self._close_request_span(job, state="shed")
        self._flight_add(job)
        job.publish(
            {"type": "error", "job": job.id, "code": "shed", "error": message}
        )
        job._finish("shed", error=message)
        if self.flight is not None:
            self.flight.trigger("shed", detail=detail, trace_id=job.trace_id)
        self._set_depth_gauge()

    def _close_request_span(
        self, job: Job, state: str, stop_reason: Optional[str] = None
    ) -> None:
        """Close the job's serve.request span (and anything deeper)."""
        recorder, span = job.recorder, job._request_span
        if recorder is None or span is None:
            return
        span.attrs["state"] = state
        if stop_reason is not None:
            span.attrs["stop_reason"] = stop_reason
        if span.end is None:
            recorder.close_span(span)
        job._request_span = None

    def _flight_add(self, job: Job) -> None:
        """Feed the finished job's trace into the flight ring.

        Runs *before* ``job._finish`` so a subsequent 5xx trigger always
        finds the failing request's spans in the window.  Telemetry
        must never fail a request, hence the blanket except.
        """
        if self.flight is None or job.recorder is None:
            return
        try:
            self.flight.add_trace(trace_records(job.recorder))
        except Exception:  # noqa: BLE001 - telemetry boundary
            traceback.print_exc()

    # -- worker pool ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job, shed = self.queue.take(timeout=0.1)
            for victim in shed:
                self._finish_shed(victim, "expired while queued")
            if job is None:
                if self._closed and self.queue.depth() == 0:
                    return
                continue
            self._set_depth_gauge()
            if self._draining and self.drain_remaining_seconds() <= 0:
                # The grace budget is gone; answering 503 beats starting
                # a solve that would immediately be cancelled.
                self._finish_shed(job, "drain grace exhausted")
                continue
            self._run(job)

    def _build_options(self, job: Job, recorder: RequestRecorder):
        """Request options + an explicit budget the table holds on to."""
        from repro.api import SolveOptions

        options = job.request.build_options(
            self.default_deadline_seconds, job.token, recorder
        )
        budget = RuntimeBudget(
            deadline_seconds=options.deadline_seconds,
            round_budget_seconds=options.round_budget_seconds,
            token=job.token,
        )
        fields = {
            name: getattr(options, name)
            for name in options.__dataclass_fields__
        }
        fields["budget"] = budget
        fields["deadline_seconds"] = None
        fields["round_budget_seconds"] = None
        fields["cancel_token"] = None
        if (
            self.drain_checkpoint_dir is not None
            and fields.get("checkpoint_path") is None
        ):
            job.checkpoint_path = os.path.join(
                self.drain_checkpoint_dir, f"{job.id}.checkpoint.json"
            )
            fields["checkpoint_path"] = job.checkpoint_path
        return SolveOptions(**fields), budget

    def _run(self, job: Job) -> None:
        from repro.api import partition

        job.started = time.time()
        job.state = "running"
        with self._lock:
            self._running[job.id] = job
            self.registry.gauge("serve.running").set(len(self._running))
        recorder = job.recorder
        if recorder is not None and job._queue_span is not None:
            # The worker owns the recorder from here: close the queue
            # wait, leaving serve.request open for the solve subtree.
            queue_span = job._queue_span
            recorder.close_span(queue_span)
            job.queue_wait_seconds = queue_span.duration
            job._queue_span = None
            solve_span = "job.solve"
        else:
            # Tracing disabled: a throwaway recorder still feeds the
            # per-request metrics merged into /metrics below.
            recorder = RequestRecorder(job)
            solve_span = "serve.request"
        try:
            try:
                instance, hit = self.store.get(job.request.instance)
                job.cache_hit = hit
                self.registry.counter(
                    "serve.instance_lookups",
                    {"outcome": "hit" if hit else "miss"},
                ).inc()
                options, budget = self._build_options(job, recorder)
                job.budget = budget
                if self._draining:
                    # Jobs dequeued mid-drain only get the remaining
                    # grace; drain() re-tightens jobs already running.
                    budget.tighten(
                        max(self.drain_remaining_seconds(), 1e-9)
                    )
                with recorder.span(
                    solve_span, job=job.id, solver=job.request.solver
                ):
                    result = partition(
                        instance,
                        solver=job.request.solver,
                        options=options,
                        **job.request.solver_kwargs,
                    )
            except Exception as exc:  # noqa: BLE001 - job boundary
                self.registry.counter("serve.jobs", {"state": "failed"}).inc()
                # Keep the traceback out of the wire but in the server log.
                traceback.print_exc()
                message = f"{type(exc).__name__}: {exc}"
                job.publish(
                    {"type": "error", "job": job.id, "error": message}
                )
                self._reap_checkpoint(job)
                self._close_request_span(job, state="failed")
                self._flight_add(job)
                job._finish("failed", error=message)
                return
            finally:
                self.registry.merge(recorder.metrics)

            state = (
                "cancelled" if result.stop_reason == "cancelled" else "done"
            )
            self.registry.counter("serve.jobs", {"state": state}).inc()
            if result.stop_reason == "deadline":
                self.registry.counter("serve.deadline_hits").inc()
            if self._draining:
                self.registry.counter("serve.drained").inc()
            latency_ms = (time.time() - job.created) * 1e3
            with self._lock:
                self._latencies_ms.append(latency_ms)
            self.registry.histogram(
                "serve.request_ms",
                {"solver": job.request.solver},
                boundaries=LATENCY_BOUNDARIES_MS,
            ).observe(latency_ms)
            self._reap_checkpoint(job)
            self._close_request_span(
                job, state=state, stop_reason=result.stop_reason
            )
            self._flight_add(job)
            job.publish(
                {
                    "type": "result",
                    "job": job.id,
                    **result.to_dict(
                        include_assignment=job.request.include_assignment
                    ),
                }
            )
            job._finish(state, result=result)
        finally:
            with self._lock:
                self._running.pop(job.id, None)
                self.registry.gauge("serve.running").set(len(self._running))

    def _reap_checkpoint(self, job: Job) -> None:
        """Keep drain checkpoints, remove ordinary interrupt residue.

        ``SolveRuntime.finalize`` writes a checkpoint whenever an
        interrupted solve has a checkpoint path — during a drain that
        file *is* the restart story and must survive; outside one it is
        noise (a client's own micro-deadline, say) and is removed.
        """
        path = job.checkpoint_path
        if path is None:
            return
        if self._draining and os.path.exists(path):
            job.checkpoint_persisted = True
            self.registry.counter("serve.drain_checkpoints").inc()
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- queries --------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def running_count(self) -> int:
        with self._lock:
            return len(self._running)

    def recent_p99_ms(self) -> Optional[float]:
        """p99 of the most recent request latencies (None before any)."""
        with self._lock:
            samples = sorted(self._latencies_ms)
        if not samples:
            return None
        index = min(len(samples) - 1, round(0.99 * (len(samples) - 1)))
        return samples[index]

    def retry_after_seconds(self) -> float:
        """How long a rejected client should back off before retrying.

        Estimated as the time for the pool to chew through the current
        queue at the recent median latency; clamped to [1, 30] so the
        hint stays useful even with a cold latency window.
        """
        with self._lock:
            samples = sorted(self._latencies_ms)
        depth = self.queue.depth()
        if not samples:
            return 1.0
        p50_seconds = samples[len(samples) // 2] / 1e3
        estimate = p50_seconds * max(1, depth) / max(1, self.pool_size)
        return min(30.0, max(1.0, estimate))

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cooperative cancellation; returns the job (or None).

        Queued jobs start with an already-cancelled token and stop at
        their first round boundary; running jobs stop at the next one.
        Finished jobs are left untouched (the caller inspects state).
        """
        job = self.get(job_id)
        if job is None:
            return None
        if not job.wait(0):
            job.cancel_requested = True
            job.token.cancel()
            self.registry.counter("serve.cancel_requests").inc()
        return job

    # -- graceful drain -------------------------------------------------
    def drain(
        self, grace_seconds: Optional[float] = None, wait: bool = True
    ) -> None:
        """Stop accepting work; let in-flight jobs degrade gracefully.

        Flips the table into draining mode (``submit`` → 503), injects
        ``grace_seconds`` as a deadline into every running solve via
        :meth:`RuntimeBudget.tighten` — the PR 4 anytime machinery turns
        that into valid best-so-far results with
        ``stop_reason="deadline"`` — and, with ``wait=True``, blocks
        until the queue and pool are empty.  Jobs still running once the
        grace elapses are cancelled at their next round boundary; if a
        drain checkpoint dir is configured their round-boundary
        checkpoint is persisted for a byte-identical resume after
        restart.  Idempotent; the first call pins the grace deadline.
        """
        grace = (
            grace_seconds if grace_seconds is not None
            else self.drain_grace_seconds
        )
        first_flip = False
        with self._lock:
            if not self._draining:
                self._draining = True
                self._drain_deadline = time.monotonic() + grace
                first_flip = True
            running = list(self._running.values())
        if first_flip and self.flight is not None:
            self.flight.note("serve.drain", grace_seconds=grace)
            self.flight.trigger("drain_start")
        for job in running:
            if job.budget is not None:
                job.budget.tighten(max(self.drain_remaining_seconds(), 1e-9))
        if not wait:
            return
        cancelled = False
        hard_cap = time.monotonic() + grace + _DRAIN_HARD_CAP_SECONDS
        while time.monotonic() < hard_cap:
            with self._lock:
                active = len(self._running)
            if active == 0 and self.queue.depth() == 0:
                return
            if not cancelled and self.drain_remaining_seconds() <= 0:
                with self._lock:
                    stragglers = list(self._running.values())
                for job in stragglers:
                    job.token.cancel()
                cancelled = True
            time.sleep(0.01)

    def shutdown(self, wait: bool = True) -> None:
        """Terminal stop: cancel everything and join the workers.

        The abrupt path (process exit, test teardown).  For the
        graceful SIGTERM path call :meth:`drain` first — ``shutdown``
        makes no attempt to let solves finish beyond their next round
        boundary.
        """
        self._draining = True
        if self._drain_deadline is None:
            self._drain_deadline = time.monotonic()
        self._closed = True
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if not job.wait(0):
                job.token.cancel()
        if wait:
            # Workers shed remaining queued entries (grace is zero) and
            # exit once the queue is empty and closed.
            deadline = time.monotonic() + _DRAIN_HARD_CAP_SECONDS
            self.queue.close()
            for worker in self._workers:
                worker.join(timeout=max(0.0, deadline - time.monotonic()))
        else:
            for victim in self.queue.drain_all():
                self._finish_shed(victim, "server shut down")
            self.queue.close()
