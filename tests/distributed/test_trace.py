"""The protocol ledger of a traced DG run, read from its spans.

Every relayed-protocol exchange is one ``net.exchange`` span carrying
its phase ``label``, ``bytes`` and ``messages``, parented under the
``dg.round`` it belongs to, so per-phase and per-round byte accounts
come straight from the exported trace.  Message endpoints are not in
the spans; the link checks record them with a few-line
:class:`SimulatedNetwork` subclass instead.
"""

from collections import defaultdict

import pytest

from repro.datasets import gowalla_like
from repro.distributed import DGQuery, SimulatedNetwork, build_cluster
from repro.obs import recording, trace_records


class _LinkRecordingNetwork(SimulatedNetwork):
    """Records the (sender, recipient) pair of every message sent."""

    def __init__(self) -> None:
        super().__init__()
        self.links = []

    def send(self, message):
        self.links.append((message.sender, message.recipient))
        return super().send(message)

    def parallel_exchange(self, messages):
        messages = list(messages)
        self.links.extend((m.sender, m.recipient) for m in messages)
        return super().parallel_exchange(messages)


def _round_of(span, spans_by_id):
    """Round index of the nearest enclosing ``dg.round`` span."""
    while span is not None:
        if span["name"] == "dg.round":
            return span["attrs"]["round"]
        span = spans_by_id.get(span["parent"])
    return None


@pytest.fixture(scope="module")
def traced_run():
    dataset = gowalla_like(num_users=200, num_events=4, seed=91)
    cluster = build_cluster(
        dataset, num_slaves=2, use_distributed_coloring=False
    )
    with recording() as recorder:
        cluster.game.run(DGQuery(events=dataset.events, alpha=0.5, seed=0))
    spans = [r for r in trace_records(recorder) if r["type"] == "span"]
    exchanges = [s for s in spans if s["name"] == "net.exchange"]
    return cluster.network, spans, exchanges


class TestTraceContents:
    def test_trace_accounts_every_byte(self, traced_run):
        network, _, exchanges = traced_run
        assert sum(s["attrs"]["bytes"] for s in exchanges) == (
            network.total_bytes()
        )
        assert sum(s["attrs"]["messages"] for s in exchanges) == (
            network.total_messages()
        )

    def test_protocol_phases_present(self, traced_run):
        _, _, exchanges = traced_run
        labels = {s["attrs"]["label"] for s in exchanges}
        assert {
            "init",
            "lsv",
            "gsv",
            "compute_color",
            "changes_up",
            "changes_down",
            "terminate",
        } <= labels

    def test_round_zero_contains_init_and_gsv(self, traced_run):
        _, spans, exchanges = traced_run
        spans_by_id = {s["id"]: s for s in spans}
        round0 = {
            s["attrs"]["label"]
            for s in exchanges
            if _round_of(s, spans_by_id) == 0
        }
        assert "init" in round0
        assert "gsv" in round0
        assert "compute_color" not in round0

    def test_bytes_by_type_totals(self, traced_run):
        network, _, exchanges = traced_run
        by_label = defaultdict(int)
        for span in exchanges:
            by_label[span["attrs"]["label"]] += span["attrs"]["bytes"]
        assert sum(by_label.values()) == network.total_bytes()
        # The GSV broadcast is the single biggest per-message payload in
        # round 0; it must dominate INIT traffic.
        assert by_label["gsv"] > by_label["init"]

    def test_endpoints_master_centric(self):
        dataset = gowalla_like(num_users=200, num_events=4, seed=91)
        network = _LinkRecordingNetwork()
        cluster = build_cluster(
            dataset, num_slaves=2, network=network,
            use_distributed_coloring=False,
        )
        cluster.game.run(DGQuery(events=dataset.events, alpha=0.5, seed=0))
        # Relayed protocol: every message touches the master.
        assert network.links
        assert all("M" in pair for pair in network.links)


class TestPeerTrace:
    def test_peer_protocol_has_slave_to_slave_links(self):
        dataset = gowalla_like(num_users=200, num_events=4, seed=92)
        network = _LinkRecordingNetwork()
        cluster = build_cluster(
            dataset, num_slaves=2, network=network, protocol="peer",
            use_distributed_coloring=False,
        )
        cluster.game.run(DGQuery(events=dataset.events, seed=0))
        slave_pairs = [pair for pair in network.links if "M" not in pair]
        assert slave_pairs, "peer protocol must exchange slave-to-slave"
