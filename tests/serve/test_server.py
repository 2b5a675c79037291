"""End-to-end tests of the solve service over real HTTP.

One embedded server per test class (module-scoped fixtures would let
job/metric state leak between assertions about counters).  Everything
runs on an ephemeral port; no test touches the network beyond loopback.
"""

import json
import threading

import numpy as np
import pytest

from repro.api import SolveOptions, partition
from repro.core.result_schema import validate_result
from repro.datasets import load_dataset, paper_example_instance
from repro.errors import ConfigurationError
from repro.serve import EmbeddedServer, ServeConfig
from repro.serve.client import ServerError


@pytest.fixture()
def client():
    with EmbeddedServer(
        ServeConfig(port=0, pool_size=2, max_instances=2, max_jobs=8)
    ) as connected:
        yield connected


class TestBasics:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["api"] == "v1"
        assert payload["pool_size"] == 2

    def test_solver_catalog(self, client):
        catalog = client.solvers()
        assert "global_table" in catalog["solvers"]
        assert "pure" in catalog["backends"]
        aliases = catalog["solvers"]["global_table"]["aliases"]
        assert "gt" in aliases
        # Only public parameters reach the catalog.
        for name, entry in catalog["solvers"].items():
            assert not [p for p in entry["accepts"] if p.startswith("_")], name

    def test_unknown_route_404(self, client):
        with pytest.raises(ServerError) as info:
            client._request("GET", "/v1/nope")
        assert info.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServerError) as info:
            client._request("GET", "/v1/solve")
        assert info.value.status == 405

    def test_validation_errors_are_400_with_field_path(self, client):
        with pytest.raises(ConfigurationError, match=r"request\.options\.sed"):
            client.solve({"options": {"sed": 1}})
        with pytest.raises(ConfigurationError, match=r"request\.solver"):
            client.solve({"solver": "magic"})
        with pytest.raises(
            ConfigurationError,
            match=r"request\.solver_kwargs\._checkpoint_solver",
        ):
            client.solve(
                {
                    "solver": "cap",
                    "solver_kwargs": {
                        "capacities": [50] * 8,
                        "_checkpoint_solver": "RMGP_b",
                    },
                }
            )
        # The server must survive bad requests.
        assert client.health()["status"] == "ok"

    def test_non_json_body_is_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/solve", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            payload = json.loads(response.read().decode())
            assert "not valid JSON" in payload["error"]["message"]
        finally:
            conn.close()


class TestSolve:
    def test_sync_solve_returns_valid_result(self, client):
        payload = client.solve(
            {
                "instance": {"dataset": "paper"},
                "solver": "gt",
                "options": {"seed": 0},
                "include_assignment": True,
            }
        )
        assert payload["state"] == "done"
        result = payload["result"]
        assert result["schema"] == "repro-result/v1"
        assert validate_result(result) == []

    def test_http_solve_matches_direct_partition(self, client, tmp_path):
        """Acceptance: served solve byte-identical to a direct call.

        Checked with tracing + flight recorder on (the ``client``
        fixture default, plus an explicit flight dir) *and* with tracing
        off — observability must never perturb assignments.
        """
        spec = {"dataset": "gowalla", "users": 150, "events": 6, "seed": 3}
        options = {"seed": 7, "alpha": 0.3}
        body = {
            "instance": spec,
            "solver": "gt",
            "options": options,
            "include_assignment": True,
        }
        payload = client.solve(body)
        served = payload["result"]

        data = load_dataset(
            "gowalla", num_users=150, num_events=6, seed=3, use_cache=False
        )
        from repro.core import RMGPInstance

        instance = RMGPInstance(data.graph, data.event_ids, data.cost_matrix())
        direct = partition(
            instance, solver="gt", options=SolveOptions.from_dict(options)
        )
        direct_payload = direct.to_dict(include_assignment=True)
        assert served["assignment_sha256"] == direct_payload["assignment_sha256"]
        assert served["assignment"] == direct_payload["assignment"]
        assert served["objective"] == pytest.approx(direct_payload["objective"])
        assert served["rounds"] == direct_payload["rounds"]

        for cfg in (
            ServeConfig(port=0, pool_size=1, trace_requests=False),
            ServeConfig(
                port=0, pool_size=1, flight_dir=str(tmp_path / "flight")
            ),
        ):
            with EmbeddedServer(cfg) as other:
                replay = other.solve(dict(body))["result"]
            assert (
                replay["assignment_sha256"]
                == direct_payload["assignment_sha256"]
            )
            assert replay["rounds"] == direct_payload["rounds"]

    def test_solver_kwargs_reach_the_solver(self, client):
        n = paper_example_instance().n
        payload = client.solve(
            {
                "instance": {"dataset": "paper"},
                "solver": "cap",
                "solver_kwargs": {"capacities": [n, n, n]},
                "include_assignment": True,
            }
        )
        assert payload["state"] == "done"
        assert validate_result(payload["result"]) == []

    def test_concurrent_microsecond_deadlines(self, client):
        """Acceptance: tiny deadlines all stop as 'deadline', server lives."""
        results = [None] * 6
        errors = []

        def _one(i):
            try:
                results[i] = client.solve(
                    {
                        "instance": {
                            "dataset": "gowalla", "users": 250, "events": 8,
                        },
                        "solver": "gt",
                        "options": {"deadline_seconds": 1e-6},
                        "include_assignment": True,
                    }
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=_one, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for payload in results:
            assert payload is not None
            result = payload["result"]
            assert result["stop_reason"] == "deadline"
            assert result["converged"] is False
            assert validate_result(result) == []
            assignment = np.asarray(result["assignment"])
            assert assignment.shape == (250,)
            assert (assignment >= 0).all()
        assert client.health()["status"] == "ok"

    def test_worker_failure_is_a_failed_job_not_a_dead_server(self, client):
        # Wrong capacity count passes wire validation (it is a value
        # error, not a schema error) and raises inside the worker.
        ticket = client.solve(
            {
                "instance": {"dataset": "paper"},
                "solver": "cap",
                "solver_kwargs": {"capacities": [1]},
                "wait": False,
            }
        )
        final = client.wait_for(ticket["job"], timeout=60)
        assert final["state"] == "failed"
        assert "capacity" in final["error"]
        assert client.health()["status"] == "ok"


class TestJobs:
    def test_async_ticket_then_poll(self, client):
        ticket = client.solve(
            {
                "instance": {"dataset": "paper"},
                "solver": "gt",
                "wait": False,
            }
        )
        assert set(ticket) == {"job", "state", "trace_id"}
        final = client.wait_for(ticket["job"], timeout=60)
        assert final["state"] == "done"
        assert final["result"]["stop_reason"] in ("converged", "max_rounds")

    def test_cancel_lifecycle(self, client):
        ticket = client.solve(
            {
                "instance": {"dataset": "gowalla", "users": 400, "events": 8},
                "solver": "b",
                "wait": False,
            }
        )
        cancelled = client.cancel(ticket["job"])
        assert cancelled["cancel_requested"] is True
        final = client.wait_for(ticket["job"], timeout=60)
        assert final["state"] in ("cancelled", "done")
        if final["state"] == "cancelled":
            assert final["result"]["stop_reason"] == "cancelled"
            assert validate_result(final["result"]) == []

    def test_cancel_finished_job_is_409(self, client):
        from repro.serve.errors import validate_error

        payload = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"}
        )
        job_id = payload["job"]
        response = client.cancel(job_id)
        # A finished job cancels to a 409 repro-error/v1 envelope.
        assert validate_error(response) == []
        assert response["error"]["code"] == "already_finished"
        assert response["error"]["job"] == job_id
        assert "already finished" in response["error"]["message"]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as info:
            client.job("job-999")
        assert info.value.status == 404

    def test_jobs_listing(self, client):
        client.solve({"instance": {"dataset": "paper"}})
        jobs = client.jobs()
        assert len(jobs) >= 1
        assert {"job", "state", "solver", "created"} <= set(jobs[0])


class TestStreaming:
    def test_record_sequence(self, client):
        records = list(
            client.solve_stream(
                {
                    "instance": {"dataset": "paper"},
                    "solver": "gt",
                    "options": {"seed": 0},
                }
            )
        )
        kinds = [record["type"] for record in records]
        assert kinds[0] == "job"
        assert kinds[-1] == "result"
        rounds = [record for record in records if record["type"] == "round"]
        assert rounds, "expected at least one per-round progress record"
        assert [record["round"] for record in rounds] == sorted(
            record["round"] for record in rounds
        )
        for record in rounds:
            assert {"deviations", "players_examined", "frontier"} <= set(record)
        assert validate_result(
            {k: v for k, v in records[-1].items() if k not in ("type", "job")}
        ) == []

    def test_stream_result_matches_sync(self, client):
        body = {
            "instance": {"dataset": "paper"},
            "solver": "gt",
            "options": {"seed": 1},
        }
        streamed = list(client.solve_stream(dict(body)))[-1]
        synced = client.solve(dict(body))["result"]
        assert streamed["assignment_sha256"] == synced["assignment_sha256"]


class TestInstanceStoreOverHttp:
    def test_lru_hits_and_evictions(self, client):
        # max_instances=2: third distinct graph evicts the oldest.
        for seed in (0, 1, 2):
            client.solve(
                {
                    "instance": {
                        "dataset": "gowalla", "users": 60, "events": 4,
                        "seed": seed,
                    },
                    "solver": "gt",
                }
            )
        stats = client.instances()
        assert stats["resident"] == 2
        assert stats["evictions"] >= 1
        assert stats["misses"] >= 3
        # Repeat of a resident graph is a hit.
        client.solve(
            {
                "instance": {
                    "dataset": "gowalla", "users": 60, "events": 4, "seed": 2,
                },
                "solver": "gt",
            }
        )
        assert client.instances()["hits"] >= 1

    def test_mixed_alpha_shares_one_instance(self, client):
        for alpha in (0.2, 0.8):
            client.solve(
                {
                    "instance": {"dataset": "paper"},
                    "solver": "gt",
                    "options": {"alpha": alpha},
                }
            )
        stats = client.instances()
        assert ["paper"] in stats["keys"]
        assert stats["hits"] >= 1


class TestMetricsEndpoint:
    def test_prometheus_text_reflects_traffic(self, client):
        client.solve({"instance": {"dataset": "paper"}, "solver": "gt"})
        client.solve(
            {
                "instance": {"dataset": "paper"},
                "solver": "gt",
                "options": {"deadline_seconds": 1e-6},
            }
        )
        text = client.metrics()
        assert 'repro_serve_requests_total{solver="gt"} 2' in text
        assert "repro_serve_deadline_hits_total 1" in text
        assert 'repro_serve_jobs_total{state="done"} 2' in text
        assert "repro_serve_request_ms" in text
        # Solver-side metrics merged from per-request recorders.
        assert "repro_solve_rounds_total" in text or "rounds" in text


class TestJobRetention:
    def test_finished_jobs_evicted_beyond_max(self, client):
        # max_jobs=8 in the fixture; run more than that.
        for _ in range(10):
            client.solve({"instance": {"dataset": "paper"}, "solver": "gt"})
        assert len(client.jobs()) <= 8
