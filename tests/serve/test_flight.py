"""Flight recorder: ring semantics, debounce, triggers, HTTP surface.

Unit tests drive :class:`~repro.obs.flight.FlightRecorder` with a fake
clock (no sleeps); integration tests force real 5xx/shed traffic
through an embedded server and assert exactly one debounced dump lands
on disk, schema-valid, containing the failing request's trace id.
"""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.obs.exporters import trace_records
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import TraceRecorder
from repro.obs.schema import validate_records
from repro.obs.validate import validate_file
from repro.serve import EmbeddedServer, ServeConfig
from repro.serve.client import ServerError

TRACE_ID = "0af7651916cd43dd8448eb211c80319c"


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _one_trace(name="serve.request", **attrs):
    recorder = TraceRecorder()
    with recorder.span(name, **attrs):
        with recorder.span("inner"):
            pass
    return trace_records(recorder)


class TestRing:
    def test_add_trace_remaps_ids_globally(self, tmp_path):
        clock = _Clock()
        flight = FlightRecorder(directory=str(tmp_path), clock=clock)
        # Two recorders both count span ids from 1; the ring must not
        # collide them.
        flight.add_trace(_one_trace(trace_id="a" * 32))
        flight.add_trace(_one_trace(trace_id="b" * 32))
        dump = flight.trigger("manual", force=True)
        records = [
            json.loads(line)
            for line in open(dump.path, encoding="utf-8")
            if line.strip()
        ]
        assert validate_records(records) == []
        span_ids = [r["id"] for r in records if r.get("type") == "span"]
        assert len(span_ids) == len(set(span_ids)) == 4
        assert dump.trace_ids == ["a" * 32, "b" * 32]

    def test_window_excludes_old_traces(self, tmp_path):
        clock = _Clock()
        flight = FlightRecorder(
            window_seconds=10.0, directory=str(tmp_path), clock=clock
        )
        flight.add_trace(_one_trace(trace_id="old0" + "a" * 28))
        clock.now += 100.0  # the first trace ages far out of the window
        flight.add_trace(_one_trace(trace_id="new0" + "b" * 28))
        dump = flight.trigger("manual", force=True)
        assert dump.trace_ids == ["new0" + "b" * 28]
        records = [
            json.loads(line)
            for line in open(dump.path, encoding="utf-8")
            if line.strip()
        ]
        assert validate_records(records) == []

    def test_evicted_parent_is_repaired_to_root(self, tmp_path):
        clock = _Clock()
        # Tiny ring: the parent span of the first trace gets evicted.
        flight = FlightRecorder(
            max_records=3, directory=str(tmp_path), clock=clock
        )
        flight.add_trace(_one_trace())
        flight.add_trace(_one_trace())  # pushes the first parent out
        dump = flight.trigger("manual", force=True)
        records = [
            json.loads(line)
            for line in open(dump.path, encoding="utf-8")
            if line.strip()
        ]
        # Orphan repair keeps the dump schema-valid no matter what the
        # ring evicted.
        assert validate_records(records) == []

    def test_note_records_marker_span(self, tmp_path):
        clock = _Clock()
        flight = FlightRecorder(directory=str(tmp_path), clock=clock)
        flight.note("serve.drain", grace_seconds=5.0, ignored=object())
        dump = flight.trigger("manual", force=True)
        records = [
            json.loads(line)
            for line in open(dump.path, encoding="utf-8")
            if line.strip()
        ]
        assert validate_records(records) == []
        marker = next(r for r in records if r.get("type") == "span")
        assert marker["name"] == "serve.drain"
        assert marker["attrs"] == {"grace_seconds": 5.0}
        assert marker["start"] == marker["end"]


class TestDebounce:
    def test_storm_produces_exactly_one_dump(self, tmp_path):
        clock = _Clock()
        registry = MetricsRegistry()
        flight = FlightRecorder(
            debounce_seconds=30.0,
            directory=str(tmp_path),
            registry=registry,
            clock=clock,
        )
        flight.add_trace(_one_trace(trace_id=TRACE_ID))
        dumps = [
            flight.trigger("http_500", trace_id=TRACE_ID)
            for _ in range(10)  # a 500-storm inside one debounce window
        ]
        written = [d for d in dumps if d is not None]
        assert len(written) == 1
        assert len(glob.glob(str(tmp_path / "*.trace.jsonl"))) == 1
        # Every trigger is still counted, suppressed ones separately.
        assert registry.counter(
            "serve.flight_triggers", {"reason": "http_500"}
        ).value == 10
        assert registry.counter("serve.flight_suppressed").value == 9
        assert registry.counter("serve.flight_dumps").value == 1

    def test_next_window_dumps_again(self, tmp_path):
        clock = _Clock()
        flight = FlightRecorder(
            debounce_seconds=30.0, directory=str(tmp_path), clock=clock
        )
        flight.add_trace(_one_trace())
        assert flight.trigger("http_500") is not None
        assert flight.trigger("http_500") is None
        clock.now += 31.0
        assert flight.trigger("http_500") is not None

    def test_force_bypasses_debounce(self, tmp_path):
        clock = _Clock()
        flight = FlightRecorder(
            debounce_seconds=30.0, directory=str(tmp_path), clock=clock
        )
        flight.add_trace(_one_trace())
        assert flight.trigger("http_500") is not None
        assert flight.trigger("manual", force=True) is not None

    def test_no_directory_counts_but_writes_nothing(self):
        registry = MetricsRegistry()
        flight = FlightRecorder(registry=registry, clock=_Clock())
        flight.add_trace(_one_trace())
        assert flight.trigger("http_500") is None
        assert registry.counter(
            "serve.flight_triggers", {"reason": "http_500"}
        ).value == 1
        assert registry.counter("serve.flight_dumps").value == 0


class TestServerIntegration:
    def test_500_dumps_once_with_failing_trace_id(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        cfg = ServeConfig(
            port=0,
            pool_size=2,
            flight_dir=flight_dir,
            flight_debounce_seconds=60.0,
        )
        bad = {
            "instance": {"dataset": "paper"},
            "solver": "cap",
            "solver_kwargs": {"capacities": [1]},  # value error in-worker
        }
        with EmbeddedServer(cfg) as client:
            for _ in range(3):  # a small 500-storm
                with pytest.raises(ServerError) as info:
                    client.solve(dict(bad), trace_id=TRACE_ID)
                assert info.value.status == 500
            # Exactly ONE debounced dump for the whole storm.
            dumps = sorted(glob.glob(os.path.join(flight_dir, "*.trace.jsonl")))
            assert len(dumps) == 1
            assert "http_500" in os.path.basename(dumps[0])
            assert validate_file(dumps[0]) == []
            records = [
                json.loads(line)
                for line in open(dumps[0], encoding="utf-8")
                if line.strip()
            ]
            meta = records[0]
            assert meta["flight"]["reason"] == "http_500"
            assert meta["flight"]["trace_id"] == TRACE_ID
            # The failing request's spans are in the window.
            attrs_tids = {
                (r.get("attrs") or {}).get("trace_id")
                for r in records
                if r.get("type") == "span"
            }
            assert TRACE_ID in attrs_tids
            # The metrics snapshot rides along.
            stem = dumps[0][: -len(".trace.jsonl")]
            assert os.path.exists(stem + ".metrics.txt")

    def test_manual_endpoint_and_inspector(self, tmp_path, capsys):
        flight_dir = str(tmp_path / "flight")
        cfg = ServeConfig(port=0, pool_size=1, flight_dir=flight_dir)
        with EmbeddedServer(cfg) as client:
            client.solve(
                {"instance": {"dataset": "paper"}, "solver": "gt"},
                trace_id=TRACE_ID,
            )
            payload = client._request("POST", "/v1/debug/flight")
            assert payload["reason"] == "manual"
            assert TRACE_ID in payload["trace_ids"]
            assert os.path.exists(payload["dump"])
            assert os.path.exists(payload["metrics"])
        capsys.readouterr()
        assert main(["flight", payload["dump"]]) == 0
        report = capsys.readouterr().out
        assert "schema: valid repro-trace/v2" in report
        assert TRACE_ID in report
        assert "serve.request" in report

    def test_p99_breach_degrades_health_and_dumps_once(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        threshold = 1e-6  # every real request is slower
        cfg = ServeConfig(
            port=0,
            pool_size=1,
            flight_dir=flight_dir,
            flight_debounce_seconds=60.0,
            health_p99_ms=threshold,
        )
        embedded = EmbeddedServer(cfg)
        with embedded as client:
            assert client.health()["status"] == "ok"  # no latencies yet
            client.solve({"instance": {"dataset": "paper"}, "solver": "gt"})
            for _ in range(3):  # polls inside one debounce window
                health = client.health()
                assert health["status"] == "degraded"
                assert health["health_p99_ms"] == threshold
                assert health["recent_p99_ms"] > threshold
            triggers = embedded.server.registry.counter(
                "serve.flight_triggers", {"reason": "p99_breach"}
            ).value
        assert triggers == 1
        dumps = glob.glob(os.path.join(flight_dir, "*p99_breach.trace.jsonl"))
        assert len(dumps) == 1
        with open(dumps[0], encoding="utf-8") as handle:
            meta = json.loads(handle.readline())
        assert meta["flight"]["reason"] == "p99_breach"
        assert f"{threshold:g}ms" in meta["flight"]["detail"]
        assert main(["validate", dumps[0]]) == 0

    def test_manual_endpoint_without_dir_is_409(self):
        with EmbeddedServer(ServeConfig(port=0, pool_size=1)) as client:
            with pytest.raises(ServerError) as info:
                client._request("POST", "/v1/debug/flight")
            assert info.value.status == 409
            assert info.value.code == "flight_disabled"

    def test_manual_endpoint_with_tracing_off_is_409(self, tmp_path):
        cfg = ServeConfig(
            port=0,
            pool_size=1,
            trace_requests=False,
            flight_dir=str(tmp_path),
        )
        with EmbeddedServer(cfg) as client:
            with pytest.raises(ServerError) as info:
                client._request("POST", "/v1/debug/flight")
            assert info.value.status == 409
            assert info.value.code == "flight_disabled"

    def test_shed_triggers_flight_dump(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        cfg = ServeConfig(
            port=0,
            pool_size=1,
            max_queue=2,
            admission_policy="shed-expired",
            flight_dir=flight_dir,
            flight_debounce_seconds=60.0,
        )
        with EmbeddedServer(cfg) as client:
            # Fill the pool + queue with already-expired work, then push
            # one more request so the queue sheds the expired entries.
            tickets = []
            for _ in range(3):
                tickets.append(
                    client.solve(
                        {
                            "instance": {
                                "dataset": "gowalla",
                                "users": 300,
                                "events": 8,
                            },
                            "solver": "gt",
                            "options": {"deadline_seconds": 1e-6},
                            "wait": False,
                        }
                    )
                )
            try:
                tickets.append(
                    client.solve(
                        {
                            "instance": {"dataset": "paper"},
                            "solver": "gt",
                            "wait": False,
                        }
                    )
                )
            except ServerError:
                pass  # full even after shedding: also fine
            for ticket in tickets:
                client.wait_for(ticket["job"], timeout=60)
            states = {
                job["state"] for job in client.jobs()
            }
            if "shed" in states:
                dumps = glob.glob(os.path.join(flight_dir, "*.trace.jsonl"))
                assert dumps, "a shed must trigger a flight dump"
                for dump in dumps:
                    assert validate_file(dump) == []
