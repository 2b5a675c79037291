"""Unit tests for the fault-injection layer.

Covers FaultPlan determinism (same seed ⇒ identical fault schedule and
final assignment), the semantics of each fault kind, the zero-overhead
guarantee of the default path, and the retry/backoff arithmetic against
the simulated clock.
"""

import math

import pytest

from repro.datasets import gowalla_like
from repro.distributed import (
    CrashEvent,
    DGQuery,
    FaultPlan,
    FaultyNetwork,
    ReliableTransport,
    RetryPolicy,
    build_cluster,
)
from repro.distributed import messages as msg
from repro.errors import ConfigurationError, SlaveUnreachableError
from repro.obs import recording, trace_records


@pytest.fixture(scope="module")
def dataset():
    return gowalla_like(num_users=200, num_events=5, seed=11)


@pytest.fixture(scope="module")
def query(dataset):
    return DGQuery(events=dataset.events, alpha=0.5, seed=2)


@pytest.fixture(scope="module")
def fault_free(dataset, query):
    cluster = build_cluster(dataset, num_slaves=2)
    result = cluster.game.run(query)
    ledgers = [
        (l.round_index, l.bytes_sent, l.messages)
        for l in cluster.network.round_ledgers()
    ]
    return result, ledgers


def run_with_plan(dataset, query, plan, **kwargs):
    cluster = build_cluster(dataset, num_slaves=2, fault_plan=plan, **kwargs)
    result = cluster.game.run(query)
    return cluster, result


def fault_schedule(network):
    """Comparable projection of the injected-fault ledger."""
    return [
        (f.round_index, f.step, f.kind, f.target, f.msg_type, f.attempt)
        for f in network.injected
    ]


class TestFaultPlanValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_rate=-0.1)

    def test_rejects_bad_crash(self):
        with pytest.raises(ConfigurationError):
            CrashEvent("slave-0", -1, 0)
        with pytest.raises(ConfigurationError):
            CrashEvent("slave-0", 1, 0, downtime=0.0)

    def test_describe_mentions_everything(self):
        plan = FaultPlan(
            seed=9, drop_rate=0.5, crashes=(CrashEvent("slave-1", 2, 0),)
        )
        text = plan.describe()
        assert "seed=9" in text and "drop_rate=0.5" in text
        assert "slave-1" in text and "forever" in text


class TestDeterminism:
    PLAN = FaultPlan(
        seed=42,
        drop_rate=0.4,
        delay_rate=0.3,
        duplicate_rate=0.3,
        reorder_rate=0.5,
        crashes=(CrashEvent("slave-0", 1, 2, downtime=0.01),),
    )

    def test_same_seed_identical_schedule_and_assignment(self, dataset, query):
        c1, r1 = run_with_plan(dataset, query, self.PLAN)
        c2, r2 = run_with_plan(dataset, query, self.PLAN)
        assert fault_schedule(c1.network) == fault_schedule(c2.network)
        assert r1.assignment == r2.assignment
        assert r1.total_bytes == r2.total_bytes
        assert c1.network.clock == pytest.approx(c2.network.clock)

    def test_different_seed_different_schedule(self, dataset, query):
        import dataclasses

        c1, _ = run_with_plan(dataset, query, self.PLAN)
        c2, _ = run_with_plan(
            dataset, query, dataclasses.replace(self.PLAN, seed=43)
        )
        assert fault_schedule(c1.network) != fault_schedule(c2.network)

    def test_plan_is_replayable(self, dataset, query):
        """A FaultPlan is immutable config: reuse never mutates it."""
        before = self.PLAN.describe()
        run_with_plan(dataset, query, self.PLAN)
        assert self.PLAN.describe() == before


class TestZeroOverheadDefault:
    def test_empty_plan_matches_fault_free_ledger(
        self, dataset, query, fault_free
    ):
        reference, ledgers = fault_free
        cluster, result = run_with_plan(dataset, query, FaultPlan(seed=5))
        faulty_ledgers = [
            (l.round_index, l.bytes_sent, l.messages)
            for l in cluster.network.round_ledgers()
        ]
        assert faulty_ledgers == ledgers
        assert result.assignment == reference.assignment
        assert not cluster.network.injected

    def test_plain_network_untouched_by_reliability_layer(
        self, dataset, query, fault_free
    ):
        reference, ledgers = fault_free
        cluster = build_cluster(dataset, num_slaves=2)
        result = cluster.game.run(query)
        assert cluster.game.transport is None
        assert result.total_bytes == reference.total_bytes


class TestFaultSemantics:
    def test_drops_cost_retransmissions_only(self, dataset, query, fault_free):
        reference, _ = fault_free
        plan = FaultPlan(seed=1, drop_rate=1.0, max_consecutive_drops=2)
        cluster, result = run_with_plan(dataset, query, plan)
        # Every logical message takes exactly 3 attempts (2 capped drops).
        assert result.total_messages == 3 * reference.total_messages
        drops = cluster.network.faults_by_kind()["drop"]
        assert drops == 2 * reference.total_messages
        assert result.assignment == reference.assignment

    def test_delays_change_time_not_bytes(self, dataset, query, fault_free):
        reference, _ = fault_free
        plan = FaultPlan(seed=1, delay_rate=1.0, max_delay_seconds=0.02)
        cluster, result = run_with_plan(dataset, query, plan)
        assert result.total_bytes == reference.total_bytes
        assert result.total_messages == reference.total_messages
        faulty_time = sum(
            l.transfer_seconds for l in cluster.network.round_ledgers()
        )
        reference_time = sum(r.transfer_seconds for r in reference.rounds)
        assert faulty_time > reference_time
        assert result.assignment == reference.assignment

    def test_duplicates_doubled_bytes_and_are_suppressed(
        self, dataset, query, fault_free
    ):
        reference, _ = fault_free
        plan = FaultPlan(seed=1, duplicate_rate=1.0)
        cluster, result = run_with_plan(dataset, query, plan)
        assert result.total_bytes == 2 * reference.total_bytes
        assert result.total_messages == 2 * reference.total_messages
        suppressed = sum(
            channel.duplicates_suppressed
            for channel in cluster.game.transport.channels.values()
        )
        assert suppressed == reference.total_messages
        assert result.assignment == reference.assignment

    def test_reorder_preserves_outcome(self, dataset, query, fault_free):
        reference, _ = fault_free
        plan = FaultPlan(seed=1, reorder_rate=1.0)
        cluster, result = run_with_plan(dataset, query, plan)
        assert cluster.network.faults_by_kind()["reorder"] > 0
        assert result.total_bytes == reference.total_bytes
        assert result.assignment == reference.assignment

    def test_crash_restart_recovers_same_assignment(
        self, dataset, query, fault_free
    ):
        reference, _ = fault_free
        plan = FaultPlan(
            seed=1, crashes=(CrashEvent("slave-1", 1, 1, downtime=0.01),)
        )
        cluster, result = run_with_plan(dataset, query, plan)
        kinds = cluster.network.faults_by_kind()
        assert kinds["crash"] == 1 and kinds["recovery"] == 1
        assert result.assignment == reference.assignment

    def test_faults_recorded_in_round_ledger(self, dataset, query):
        plan = FaultPlan(seed=1, drop_rate=1.0, max_consecutive_drops=1)
        cluster, _ = run_with_plan(dataset, query, plan)
        per_round = {
            l.round_index: len(l.faults)
            for l in cluster.network.round_ledgers()
        }
        assert sum(per_round.values()) == len(cluster.network.injected)
        assert per_round[0] > 0


class TestSequencingAndAcks:
    def test_sequence_numbers_and_acks_advance(self, dataset, query):
        plan = FaultPlan(seed=1, duplicate_rate=0.5)
        cluster, _ = run_with_plan(dataset, query, plan)
        for peer, channel in cluster.game.transport.channels.items():
            assert channel.next_seq > 0
            assert channel.acked_through == channel.next_seq - 1
            assert len(channel.delivered) == channel.next_seq

    def test_seq_stamp_keeps_wire_size(self):
        message = msg.ack_message("slave-0", "M")
        assert msg.with_seq(message, 17).total_bytes == message.total_bytes


class TestRetryBackoffArithmetic:
    def test_clock_matches_backoff_series(self):
        """2 forced drops + success: clock = 3·t(msg) + base·(1 + backoff)."""
        plan = FaultPlan(seed=0, drop_rate=1.0, max_consecutive_drops=2)
        net = FaultyNetwork(plan)
        policy = RetryPolicy(
            max_attempts=4, base_timeout=0.1, backoff=2.0, jitter=0.0
        )
        transport = ReliableTransport(net, policy)
        message = msg.ack_message("M", "slave-0")
        net.begin_round(0)
        transport.exchange([message])
        per_attempt = net.transfer_seconds(message.total_bytes)
        expected = 3 * per_attempt + 0.1 + 0.2
        assert net.clock == pytest.approx(expected)
        assert transport.channels["slave-0"].retries == 2

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_timeout=0.1, backoff=2.0, jitter=0.5)
        assert policy.timeout_after(0, 0.0) == pytest.approx(0.1)
        assert policy.timeout_after(0, 1.0) == pytest.approx(0.15)
        assert policy.timeout_after(3, 0.0) == pytest.approx(0.8)

    def test_budget_exhaustion_raises_typed_error(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, max_consecutive_drops=99)
        net = FaultyNetwork(plan)
        policy = RetryPolicy(max_attempts=3, base_timeout=0.01, jitter=0.0)
        transport = ReliableTransport(net, policy)
        net.begin_round(0)
        with pytest.raises(SlaveUnreachableError) as excinfo:
            transport.exchange([msg.ack_message("M", "slave-9")])
        assert excinfo.value.slave_id == "slave-9"

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


class TestDeliverySpanTrace:
    def test_attempt_level_trace(self, dataset, query):
        plan = FaultPlan(seed=1, drop_rate=1.0, max_consecutive_drops=1)
        cluster = build_cluster(dataset, num_slaves=2, fault_plan=plan)
        with recording() as recorder:
            cluster.game.run(query)
        records = list(trace_records(recorder))
        deliveries = {
            r["id"]: r
            for r in records
            if r["type"] == "span" and r["name"] == "net.deliver"
        }
        assert deliveries, "no deliveries traced"
        drops = [
            r for r in records
            if r["type"] == "event" and r["name"] == "net.drop"
        ]
        assert drops and all(d["span"] in deliveries for d in drops)
        # Each dropped attempt is followed by a retransmission of the
        # same (peer, seq) that eventually lands.
        for drop in drops:
            attrs = deliveries[drop["span"]]["attrs"]
            assert attrs["delivered"]
            assert attrs["attempts"] > drop["attrs"]["attempt"] + 1
            assert attrs["peer"].startswith("slave-")
            assert isinstance(attrs["seq"], int)


class TestPeerProtocolFaults:
    def test_message_faults_supported(self, dataset, query):
        reference = build_cluster(dataset, num_slaves=2, protocol="peer")
        ref = reference.game.run(query)
        plan = FaultPlan(seed=4, drop_rate=0.5, duplicate_rate=0.3)
        cluster = build_cluster(
            dataset, num_slaves=2, protocol="peer", fault_plan=plan
        )
        result = cluster.game.run(query)
        assert result.assignment == ref.assignment
        assert result.total_bytes > ref.total_bytes

    def test_crash_plans_rejected(self, dataset, query):
        plan = FaultPlan(seed=4, crashes=(CrashEvent("slave-0", 1, 0),))
        cluster = build_cluster(
            dataset, num_slaves=2, protocol="peer", fault_plan=plan
        )
        with pytest.raises(ConfigurationError):
            cluster.game.run(query)


class TestClusterWiring:
    def test_network_and_plan_mutually_exclusive(self, dataset):
        from repro.distributed import SimulatedNetwork

        with pytest.raises(ConfigurationError):
            build_cluster(
                dataset,
                num_slaves=2,
                network=SimulatedNetwork(),
                fault_plan=FaultPlan(),
            )

    def test_permanent_crash_marker(self):
        assert CrashEvent("slave-0", 1, 0).permanent
        assert not CrashEvent("slave-0", 1, 0, downtime=2.0).permanent
        assert math.isinf(CrashEvent("slave-0", 1, 0).downtime)
