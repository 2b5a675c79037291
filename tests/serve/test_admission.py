"""Admission control: bounded queue, shedding, priorities, health.

The unit half drives :class:`AdmissionQueue` directly with a manual
clock (deterministic shedding); the end-to-end half overloads a real
embedded server and pins the hard bound: the job table never grows past
``max_jobs + max_queue + pool_size`` no matter how much work arrives —
the regression test for the unbounded thread-pool executor queue the
previous design had.
"""

import threading
import time

import pytest

from repro.serve import EmbeddedServer, ServeConfig
from repro.serve.client import ServerError
from repro.serve.errors import validate_error
from repro.serve.jobs import AdmissionQueue, AdmissionRejected, Job
from repro.serve.wire import SolveRequest, InstanceSpec


def _request(priority="interactive", **options):
    return SolveRequest(
        instance=InstanceSpec(dataset="paper"),
        solver="gt",
        options=dict(options),
        priority=priority,
    )


def _job(index, priority="interactive", **options):
    return Job(f"job-{index}", _request(priority, **options))


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestAdmissionQueue:
    def test_offer_past_bound_rejects(self):
        queue = AdmissionQueue(max_queue=2, policy="reject")
        queue.offer(_job(0), None, 1.0)
        queue.offer(_job(1), None, 1.0)
        with pytest.raises(AdmissionRejected) as info:
            queue.offer(_job(2), None, 2.5)
        assert info.value.retry_after_seconds == 2.5
        assert queue.depth() == 2
        assert queue.max_depth_seen == 2

    def test_take_returns_fifo_within_class(self):
        queue = AdmissionQueue(max_queue=8)
        jobs = [_job(i) for i in range(3)]
        for job in jobs:
            queue.offer(job, None, 1.0)
        taken = [queue.take(0.1)[0] for _ in range(3)]
        assert [j.id for j in taken] == [j.id for j in jobs]

    def test_weighted_dequeue_interleaves_classes(self):
        queue = AdmissionQueue(max_queue=32, interactive_weight=2)
        for i in range(6):
            queue.offer(_job(i, priority="interactive"), None, 1.0)
        for i in range(6, 9):
            queue.offer(_job(i, priority="batch"), None, 1.0)
        order = []
        while True:
            job, _ = queue.take(0.05)
            if job is None:
                break
            order.append(job.request.priority)
        # 2 interactive per batch while both classes wait; batch still
        # progresses (no starvation in either direction).
        assert order[:6] == [
            "interactive", "interactive", "batch",
            "interactive", "interactive", "batch",
        ]
        assert order.count("batch") == 3

    def test_batch_alone_is_served_immediately(self):
        queue = AdmissionQueue(max_queue=8, interactive_weight=4)
        queue.offer(_job(0, priority="batch"), None, 1.0)
        job, _ = queue.take(0.1)
        assert job is not None and job.request.priority == "batch"

    def test_shed_expired_frees_room_at_offer(self):
        clock = ManualClock()
        queue = AdmissionQueue(max_queue=2, policy="shed-expired", clock=clock)
        queue.offer(_job(0), 1.0, 1.0)   # expires at t=1
        queue.offer(_job(1), 10.0, 1.0)  # expires at t=10
        clock.now = 5.0
        shed = queue.offer(_job(2), 10.0, 1.0)
        assert [j.id for j in shed] == ["job-0"]
        assert queue.depth() == 2
        assert queue.shed_total == 1

    def test_shed_expired_still_rejects_when_nothing_expired(self):
        clock = ManualClock()
        queue = AdmissionQueue(max_queue=2, policy="shed-expired", clock=clock)
        queue.offer(_job(0), 100.0, 1.0)
        queue.offer(_job(1), 100.0, 1.0)
        with pytest.raises(AdmissionRejected):
            queue.offer(_job(2), 100.0, 1.0)

    def test_expired_entries_shed_at_dequeue(self):
        clock = ManualClock()
        queue = AdmissionQueue(max_queue=8, policy="shed-expired", clock=clock)
        queue.offer(_job(0), 1.0, 1.0)
        queue.offer(_job(1), None, 1.0)  # no deadline: never sheds
        clock.now = 2.0
        job, shed = queue.take(0.1)
        assert [j.id for j in shed] == ["job-0"]
        assert job is not None and job.id == "job-1"

    def test_reject_policy_never_sheds(self):
        clock = ManualClock()
        queue = AdmissionQueue(max_queue=8, policy="reject", clock=clock)
        queue.offer(_job(0), 1.0, 1.0)
        clock.now = 100.0
        job, shed = queue.take(0.1)
        assert shed == []
        assert job is not None and job.id == "job-0"

    def test_close_wakes_blocked_take(self):
        queue = AdmissionQueue(max_queue=2)
        results = []

        def taker():
            results.append(queue.take(10.0))

        thread = threading.Thread(target=taker)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [(None, [])]


_SEEDS = iter(range(10_000))


def _slow_solve(deadline=None, priority="interactive", wait=False):
    """A request that occupies a worker for a meaningful slice of time.

    The solves themselves are milliseconds, but a *cold* instance build
    runs inside the worker (`store.get` on a miss) and takes hundreds of
    milliseconds at this size — a unique seed per request makes every
    job a guaranteed cache miss, which is the reliable way to keep the
    pool busy while a storm lands.
    """
    body = {
        "instance": {
            "dataset": "gowalla",
            "users": 2000,
            "events": 32,
            "seed": next(_SEEDS),
        },
        "solver": "gt",
        "wait": wait,
        "priority": priority,
        "options": {},
    }
    if deadline is not None:
        body["options"]["deadline_seconds"] = deadline
    return body


class TestOverloadEndToEnd:
    def test_queue_bound_holds_and_excess_gets_429(self):
        config = ServeConfig(
            port=0, pool_size=1, max_instances=2, max_jobs=4, max_queue=3
        )
        harness = EmbeddedServer(config)
        with harness as client:
            tickets, rejections = [], []
            # Hammer well past pool + queue capacity.
            for _ in range(20):
                try:
                    tickets.append(client.solve(_slow_solve()))
                except ServerError as exc:
                    rejections.append(exc)
            assert rejections, "expected 429s past the admission bound"
            for exc in rejections:
                assert exc.status == 429
                assert exc.payload is not None
                assert validate_error(exc.payload) == []
                assert exc.payload["error"]["code"] == "queue_full"
                assert exc.retryable is True
                assert exc.retry_after_seconds is not None
                assert exc.retry_after_seconds >= 1
            # The hard bound: the table never tracked more than
            # max_jobs + max_queue + pool_size jobs, and the queue
            # itself never exceeded max_queue.
            table = harness.server.jobs
            assert table.queue.max_depth_seen <= config.max_queue
            assert len(table.jobs()) <= (
                config.max_jobs + config.max_queue + config.pool_size
            )
            # Admitted jobs all finish.
            for ticket in tickets:
                final = client.wait_for(ticket["job"], timeout=60)
                assert final["state"] in ("done", "cancelled", "failed")

    def test_shed_expired_jobs_finish_as_shed(self):
        config = ServeConfig(
            port=0,
            pool_size=1,
            max_instances=2,
            max_jobs=16,
            max_queue=2,
            admission_policy="shed-expired",
        )
        with EmbeddedServer(config) as client:
            # Plug the single worker, then fill the queue with requests
            # whose deadline expires almost immediately.
            plug = client.solve(_slow_solve())
            victims = []
            for _ in range(2):
                victims.append(client.solve(_slow_solve(deadline=0.01)))
            time.sleep(0.1)  # let the victims' deadlines lapse
            # New offers find the queue full, shed the expired entries,
            # and are admitted in their place.
            replacement = client.solve(_slow_solve(deadline=30))
            states = {
                v["job"]: client.wait_for(v["job"], timeout=30)["state"]
                for v in victims
            }
            assert "shed" in states.values()
            for job_id, state in states.items():
                if state == "shed":
                    payload = client.job(job_id)
                    assert payload["stop_reason"] == "shed"
                    assert "shed" in payload["error"]
            client.cancel(plug["job"])
            client.cancel(replacement["job"])
            client.wait_for(plug["job"], timeout=30)
            client.wait_for(replacement["job"], timeout=30)

    def test_sync_wait_on_shed_job_is_503(self):
        config = ServeConfig(
            port=0,
            pool_size=1,
            max_instances=2,
            max_jobs=16,
            max_queue=1,
            admission_policy="shed-expired",
        )
        with EmbeddedServer(config) as client:
            plug = client.solve(_slow_solve())
            waiter_error = []

            def sync_wait():
                try:
                    client.solve(_slow_solve(deadline=0.01, wait=True))
                except ServerError as exc:
                    waiter_error.append(exc)

            thread = threading.Thread(target=sync_wait)
            thread.start()
            time.sleep(0.15)
            # Trigger the shed by offering into the full queue.
            try:
                client.solve(_slow_solve(deadline=30))
            except ServerError:
                pass
            thread.join(timeout=30)
            assert not thread.is_alive()
            client.cancel(plug["job"])
            if waiter_error:  # the waiter was shed, not solved
                exc = waiter_error[0]
                assert exc.status == 503
                assert exc.payload["error"]["code"] == "shed"
                assert validate_error(exc.payload) == []

    def test_health_reports_load_states(self):
        config = ServeConfig(
            port=0, pool_size=1, max_instances=2, max_jobs=8, max_queue=2
        )
        with EmbeddedServer(config) as client:
            assert client.health()["status"] == "ok"
            tickets = []
            for _ in range(8):
                try:
                    tickets.append(client.solve(_slow_solve()))
                except ServerError:
                    break
            health = client.health()
            assert health["status"] in ("degraded", "overloaded")
            assert health["queue"]["depth"] >= 1
            assert health["queue"]["max_queue"] == 2
            for ticket in tickets:
                client.cancel(ticket["job"])
            for ticket in tickets:
                client.wait_for(ticket["job"], timeout=30)

    def test_rejections_surface_in_metrics(self):
        config = ServeConfig(
            port=0, pool_size=1, max_instances=2, max_jobs=4, max_queue=1
        )
        with EmbeddedServer(config) as client:
            tickets, saw_reject = [], False
            for _ in range(12):
                try:
                    tickets.append(client.solve(_slow_solve()))
                except ServerError:
                    saw_reject = True
            assert saw_reject
            text = client.metrics()
            assert "serve_rejected" in text
            assert "serve_queue_depth" in text
            for ticket in tickets:
                client.cancel(ticket["job"])
            for ticket in tickets:
                client.wait_for(ticket["job"], timeout=30)
