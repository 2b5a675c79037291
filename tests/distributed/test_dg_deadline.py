"""Real-time guarantees for the decentralized game (deadline + token)."""

from __future__ import annotations

import pytest

from repro.datasets import gowalla_like
from repro.distributed import DGQuery, build_cluster
from repro.distributed import messages as msg
from repro.errors import ConfigurationError
from repro.runtime import CancelToken


@pytest.fixture(scope="module")
def dataset():
    return gowalla_like(num_users=400, num_events=8, seed=17)


@pytest.fixture(scope="module")
def query(dataset):
    return DGQuery(events=dataset.events, alpha=0.5, seed=1)


@pytest.fixture(scope="module")
def reference(dataset, query):
    return build_cluster(dataset, num_slaves=2).game.run(query)


class TestDGDeadline:
    def test_reference_converges(self, reference):
        assert reference.converged
        assert reference.stop_reason == "converged"

    def test_aggressive_deadline_degrades_gracefully(
        self, dataset, query, reference
    ):
        # Half of round 0's simulated transfer time: round 0 alone costs
        # more than that on any machine (its wall-measured compute only
        # adds), so the deadline is spent before round 1 can start.
        deadline = reference.rounds[0].transfer_seconds * 0.5
        result = build_cluster(dataset, num_slaves=2).game.run(
            query, deadline_seconds=deadline
        )
        assert not result.converged
        assert result.stop_reason == "deadline"
        # Degraded, but valid: every participant keeps an in-range class.
        assert set(result.assignment) == set(reference.assignment)
        assert all(0 <= c < query.k for c in result.assignment.values())
        assert result.extra["remaining_dirty"] >= 0
        assert "degraded_rounds" in result.extra

    def test_mid_run_deadline_counts_degraded_rounds(
        self, dataset, query, reference
    ):
        # The simulated transfer time of round 0 and the first half of
        # the reference's rounds, computed from message bytes: by the
        # start of the next round that much has elapsed on any machine
        # (wall-measured compute only adds), so the run cannot reach the
        # reference's converging round.
        assert reference.num_rounds >= 2
        half = 1 + reference.num_rounds // 2
        deadline = sum(r.transfer_seconds for r in reference.rounds[:half])
        result = build_cluster(dataset, num_slaves=2).game.run(
            query, deadline_seconds=deadline
        )
        assert not result.converged
        assert result.stop_reason == "deadline"
        # A zero-deviation round with skipped phases must not be
        # mistaken for convergence.
        assert result.num_rounds < reference.num_rounds or (
            result.extra["degraded_rounds"] > 0
        )

    def test_generous_deadline_reaches_same_equilibrium(
        self, dataset, query, reference
    ):
        result = build_cluster(dataset, num_slaves=2).game.run(
            query, deadline_seconds=reference.total_seconds * 100
        )
        assert result.converged
        assert result.stop_reason == "converged"
        assert result.assignment == reference.assignment

    def test_cancel_token_stops_before_round_one(self, dataset, query):
        token = CancelToken()
        token.cancel()
        result = build_cluster(dataset, num_slaves=2).game.run(
            query, cancel_token=token
        )
        assert not result.converged
        assert result.stop_reason == "cancelled"
        assert result.num_rounds == 0

    def test_non_positive_deadline_rejected(self, dataset, query):
        with pytest.raises(ConfigurationError):
            build_cluster(dataset, num_slaves=2).game.run(
                query, deadline_seconds=0.0
            )

    def test_no_deadline_run_is_byte_identical(
        self, dataset, query, reference
    ):
        again = build_cluster(dataset, num_slaves=2).game.run(query)
        assert again.total_bytes == reference.total_bytes
        assert again.total_messages == reference.total_messages
        assert again.assignment == reference.assignment


class TestComputeColorWire:
    def test_plain_message_size_unchanged(self):
        message = msg.compute_color_message("M", "s0")
        assert message.payload_bytes == msg.INT_BYTES

    def test_deadline_rides_as_one_float(self):
        message = msg.compute_color_message("M", "s0", with_deadline=True)
        assert message.payload_bytes == msg.INT_BYTES + msg.FLOAT_BYTES


class TestSlaveDegradedPhase:
    def test_exhausted_budget_skips_sweep(self, dataset, query):
        cluster = build_cluster(dataset, num_slaves=2)
        game = cluster.game
        # Drive round 0 by hand via a deadline run, then probe a slave.
        game.run(query, deadline_seconds=1e9)
        slave = game.slaves[0]
        changes, seconds = slave.compute_color(0, remaining_seconds=0.0)
        assert changes == {} and seconds == 0.0
