"""Critical-path analysis on hand-built traces (exact arithmetic)."""

from __future__ import annotations

import pytest

from repro.obs import analysis_errors, analyze_records, format_report
from repro.obs.validate import read_artifact


def _meta():
    return {"type": "meta", "schema": "repro-trace/v2"}


def _span(sid, name, start, end, parent=None, node=None, attrs=None):
    record = {
        "type": "span",
        "id": sid,
        "parent": parent,
        "name": name,
        "depth": 0,
        "start": start,
        "end": end,
        "attrs": attrs or {},
    }
    if node is not None:
        record["node"] = node
    return record


def two_slave_round():
    """One round: slave-0 computes 1s, slave-1 computes 3s."""
    return [
        _meta(),
        _span(0, "dg.solve", 0.0, 10.0),
        _span(1, "dg.round", 0.0, 10.0, parent=0, attrs={"round": 1}),
        _span(2, "dg.phase", 0.0, 5.0, parent=1, attrs={"color": 0}),
        _span(3, "slave.compute", 0.0, 1.0, parent=2, node="slave-0"),
        _span(4, "slave.compute", 0.0, 3.0, parent=2, node="slave-1"),
        _span(
            5, "net.deliver", 3.0, 4.0, parent=2, node="net",
            attrs={"attempts": 3, "delivered": True},
        ),
        _span(
            6, "net.deliver", 3.0, 3.5, parent=2, node="net",
            attrs={"attempts": 1, "delivered": True},
        ),
    ]


class TestRoundArithmetic:
    def test_straggler_idle_and_imbalance(self):
        report = analyze_records(two_slave_round())
        (round_report,) = report.rounds
        assert round_report.round_index == 1
        assert round_report.straggler == "slave-1"
        assert round_report.straggler_seconds == 3.0
        # Charged = max(1, 3) = 3; slave-0 idles for the difference.
        assert round_report.compute_seconds == 3.0
        assert round_report.idle_seconds == 2.0
        # max busy 3 / mean busy 2.
        assert round_report.imbalance == 1.5
        assert report.straggler == "slave-1"

    def test_retry_amplification(self):
        report = analyze_records(two_slave_round())
        (round_report,) = report.rounds
        assert round_report.deliveries == 2
        assert round_report.attempts == 4
        assert round_report.retry_amplification == 2.0
        assert report.retry_amplification == 2.0

    def test_critical_path_names_slowest_sibling(self):
        report = analyze_records(two_slave_round())
        compute = [
            s for s in report.critical_path if s.name == "slave.compute"
        ]
        assert len(compute) == 1
        assert compute[0].node == "slave-1"
        assert compute[0].seconds == 3.0
        assert compute[0].slack == 2.0

    def test_aggregate_exchange_counts_messages(self):
        records = [
            _meta(),
            _span(0, "dg.round", 0.0, 1.0, attrs={"round": 0}),
            _span(
                1, "net.exchange", 0.0, 0.5, parent=0, node="net",
                attrs={"messages": 4},
            ),
        ]
        (round_report,) = analyze_records(records).rounds
        assert round_report.deliveries == 4
        assert round_report.attempts == 4
        assert round_report.retry_amplification == 1.0
        assert round_report.net_seconds == 0.5


class TestReportFormatting:
    def test_empty_trace(self):
        report = analyze_records([_meta()])
        assert report.rounds == []
        assert report.straggler is None
        assert "nothing to analyze" in format_report(report)

    def test_report_mentions_all_signals(self):
        text = format_report(analyze_records(two_slave_round()))
        assert "straggler=slave-1" in text
        assert "idle=" in text
        assert "imbalance=1.50x" in text
        assert "amplification 2.00x" in text
        assert "critical path" in text

    def test_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in two_slave_round()) + "\n"
        )
        records, errors = read_artifact(str(path))
        assert errors == []
        report = analyze_records(records)
        assert report.straggler == "slave-1"


def unreadable_traces():
    """Schema-valid traces whose spans the analysis cannot read."""
    net = lambda attrs: [  # noqa: E731 - one-line builder
        _meta(),
        _span(0, "dg.round", 0.0, 1.0, attrs={"round": 0}),
        _span(1, "net.exchange", 0.0, 0.5, parent=0, node="net", attrs=attrs),
    ]
    slave = lambda start, end: [  # noqa: E731 - one-line builder
        _meta(),
        _span(0, "dg.round", 0.0, 1.0, attrs={"round": 0}),
        _span(1, "slave.compute", start, end, parent=0, node="slave-0"),
    ]
    return {
        "round-list": [
            _meta(), _span(0, "dg.round", 0.0, 1.0, attrs={"round": [1]}),
        ],
        "messages-list": net({"messages": [4]}),
        "attempts-str": net({"messages": 1, "attempts": "x"}),
        "start-beyond-float": slave(-(10**400), 0.5),
        "end-beyond-float": slave(0.0, 10**400),
        "request-end-beyond-float": [
            _meta(), _span(0, "serve.request", 0.0, 10**400),
        ],
    }


class TestUnreadableSpans:
    @pytest.mark.parametrize("shape", sorted(unreadable_traces()))
    def test_skipped_and_listed(self, shape):
        records = unreadable_traces()[shape]
        (error,) = analysis_errors(records)
        assert error.startswith("record ")
        report = analyze_records(records)
        format_report(report)
        # The unreadable span (and its subtree) is left out, not guessed.
        assert len(report.rounds) + len(report.requests) <= 1
        assert all(s.seconds < float("inf") for s in report.critical_path)

    def test_readable_trace_has_no_errors(self):
        assert analysis_errors(two_slave_round()) == []
