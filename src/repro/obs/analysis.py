"""Critical-path analysis of distributed traces.

Consumes the causally-linked traces the DG coordinator produces (master
spans plus adopted slave/network spans, see :mod:`repro.obs.context`)
and answers the questions Figure 13/14 experiments raise in practice:
*which slave is the straggler*, *how much time do the others idle
waiting for it*, *how skewed is the load*, and *how much does the
reliability layer amplify traffic via retries*.

The protocol is lockstep — per phase every slave works in parallel and
the master waits for the slowest — so the critical path through a round
is the causal chain of per-step maxima: for each group of sibling spans
with the same name (one per slave, or one per delivery) the slowest
member is on the path and everyone else idles for the difference.

The serving layer (:mod:`repro.serve`) produces a third trace shape:
``serve.request`` > ``serve.queue_wait`` + ``job.solve`` > solver
spans.  Those are digested into per-request reports — total latency
split into queue wait vs compute, naming the bottleneck — so ``repro
analyze`` answers "was this slow request queued or computing" straight
from ``GET /v1/jobs/<id>/trace`` output or a flight-recorder dump.

Works on exported JSONL records as well as live recorders, so the CLI
(``repro analyze trace.jsonl``, which reads the file with
:func:`repro.obs.validate.read_artifact`) and tests share one
implementation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import TraceRecorder

#: Spans counted as parallel compute work, grouped per node: DG
#: slave-side phases.
_WORK_PREFIXES = ("slave.",)
#: Spans counted as network time.
_NET_NAMES = ("net.deliver", "net.exchange")


@dataclass
class PathSegment:
    """One step on the critical path (the slowest sibling of its group)."""

    name: str
    node: Optional[str]
    seconds: float
    round_index: Optional[int] = None
    slack: float = 0.0  # lead over the second-slowest sibling


@dataclass
class RoundReport:
    """Straggler/idle/imbalance/retry digest of one DG round."""

    round_index: int
    straggler: Optional[str] = None
    straggler_seconds: float = 0.0
    compute_seconds: float = 0.0  # charged: sum of per-step maxima
    idle_seconds: float = 0.0  # others waiting for each step's maximum
    imbalance: float = 0.0  # max busy / mean busy across slaves
    net_seconds: float = 0.0
    deliveries: int = 0
    attempts: int = 0
    slave_busy: Dict[str, float] = field(default_factory=dict)

    @property
    def retry_amplification(self) -> float:
        """Delivery attempts per message (1.0 = no retries)."""
        if not self.deliveries:
            return 1.0
        return self.attempts / self.deliveries


@dataclass
class RequestReport:
    """Latency split of one served request (``serve.request`` span)."""

    job: Optional[str] = None
    trace_id: Optional[str] = None
    solver: Optional[str] = None
    state: Optional[str] = None
    total_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def bottleneck(self) -> str:
        """Where the request spent most of its life."""
        if self.queue_wait_seconds > self.solve_seconds:
            return "queue-wait"
        return "compute"


@dataclass
class TraceReport:
    """Whole-trace analysis: per-round digests plus totals."""

    rounds: List[RoundReport] = field(default_factory=list)
    critical_path: List[PathSegment] = field(default_factory=list)
    requests: List[RequestReport] = field(default_factory=list)

    @property
    def straggler(self) -> Optional[str]:
        """DG slave with the most total busy time."""
        busy: Dict[str, float] = defaultdict(float)
        for report in self.rounds:
            for node, seconds in report.slave_busy.items():
                busy[node] += seconds
        if not busy:
            return None
        return max(busy, key=lambda node: (busy[node], node))

    @property
    def total_compute_seconds(self) -> float:
        return sum(r.compute_seconds for r in self.rounds)

    @property
    def total_idle_seconds(self) -> float:
        return sum(r.idle_seconds for r in self.rounds)

    @property
    def retry_amplification(self) -> float:
        deliveries = sum(r.deliveries for r in self.rounds)
        attempts = sum(r.attempts for r in self.rounds)
        return attempts / deliveries if deliveries else 1.0


# ----------------------------------------------------------------------
def analyze_records(records: Iterable[Dict[str, Any]]) -> TraceReport:
    """Analyze exported trace records (``repro-trace`` v1 or v2)."""
    spans = [r for r in records if r.get("type") == "span"]
    children: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        children[span.get("parent")].append(span)

    report = TraceReport()
    for span in spans:
        name = span.get("name")
        if name == "serve.request":
            report.requests.append(
                _digest_request(span, children, report.critical_path)
            )
            continue
        if name != "dg.round":
            continue
        attrs = span.get("attrs") or {}
        round_report = RoundReport(round_index=int(attrs.get("round", -1)))
        _walk_round(span, children, round_report, report.critical_path)
        busy = round_report.slave_busy
        if busy:
            straggler = max(busy, key=lambda node: (busy[node], node))
            round_report.straggler = straggler
            round_report.straggler_seconds = busy[straggler]
            mean = sum(busy.values()) / len(busy)
            if mean > 0:
                round_report.imbalance = busy[straggler] / mean
        report.rounds.append(round_report)
    report.rounds.sort(key=lambda r: r.round_index)
    return report


def _walk_round(
    span: Dict[str, Any],
    children: Dict[Any, List[Dict[str, Any]]],
    report: RoundReport,
    path: List[PathSegment],
) -> None:
    """Accumulate one round subtree into ``report`` and ``path``.

    Sibling spans sharing a parent and a name ran in parallel (one per
    slave / one per delivery); the group is charged its maximum and the
    rest idles.
    """
    stack = [span]
    while stack:
        parent = stack.pop(0)
        groups: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        for child in children.get(parent.get("id"), []):
            stack.append(child)
            name = child.get("name", "")
            if name.startswith(_WORK_PREFIXES) or name in _NET_NAMES:
                groups[name].append(child)
        for name in sorted(groups):
            group = groups[name]
            durations = sorted(
                (_duration(member) for member in group), reverse=True
            )
            charged = durations[0]
            slowest = max(group, key=_duration)
            if name.startswith(_WORK_PREFIXES):
                report.compute_seconds += charged
                report.idle_seconds += sum(charged - d for d in durations[1:])
                for member in group:
                    node = member.get("node")
                    if node is not None:
                        report.slave_busy[node] = (
                            report.slave_busy.get(node, 0.0)
                            + _duration(member)
                        )
            else:
                report.net_seconds += charged
                for member in group:
                    attrs = member.get("attrs") or {}
                    messages = int(attrs.get("messages", 1))
                    report.deliveries += messages
                    report.attempts += int(attrs.get("attempts", messages))
            path.append(
                PathSegment(
                    name=name,
                    node=slowest.get("node"),
                    seconds=charged,
                    round_index=report.round_index,
                    slack=(
                        charged - durations[1] if len(durations) > 1 else 0.0
                    ),
                )
            )


def _digest_request(
    span: Dict[str, Any],
    children: Dict[Any, List[Dict[str, Any]]],
    path: List[PathSegment],
) -> RequestReport:
    """Split one ``serve.request`` span into queue wait vs compute.

    The two phases are serial (a job waits in the admission queue, then
    solves), so each direct-child phase span becomes one critical-path
    segment with no round index.
    """
    attrs = span.get("attrs") or {}
    request = RequestReport(
        job=attrs.get("job"),
        trace_id=attrs.get("trace_id"),
        solver=attrs.get("solver"),
        state=attrs.get("state"),
        total_seconds=_duration(span),
    )
    node = span.get("node")
    for child in children.get(span.get("id"), []):
        name = child.get("name")
        if name == "serve.queue_wait":
            request.queue_wait_seconds += _duration(child)
        elif name == "job.solve":
            request.solve_seconds += _duration(child)
        else:
            continue
        path.append(
            PathSegment(
                name=name,
                node=child.get("node", node),
                seconds=_duration(child),
                round_index=None,
            )
        )
    return request


def _duration(span: Dict[str, Any]) -> float:
    return float(span.get("end", 0.0)) - float(span.get("start", 0.0))


def analyze_recorder(recorder: "TraceRecorder") -> TraceReport:
    """Analyze a live recorder (after the traced run finished)."""
    from repro.obs.exporters import trace_records

    return analyze_records(list(trace_records(recorder)))


# ----------------------------------------------------------------------
def format_report(report: TraceReport, max_path: int = 12) -> str:
    """Human-readable critical-path / straggler report."""
    lines: List[str] = []
    if not report.rounds and not report.requests:
        return "no distributed or parallel rounds in trace (nothing to analyze)"
    for request in report.requests:
        label = request.job or "request"
        desc = (
            f"{label}: {request.total_seconds * 1e3:.3f} ms total = "
            f"queue-wait {request.queue_wait_seconds * 1e3:.3f} ms + "
            f"compute {request.solve_seconds * 1e3:.3f} ms"
            f" -> bottleneck: {request.bottleneck}"
        )
        if request.solver:
            desc += f" (solver {request.solver}"
            if request.state:
                desc += f", state {request.state}"
            desc += ")"
        lines.append(desc)
        if request.trace_id:
            lines.append(f"  trace id: {request.trace_id}")
    if not report.rounds:
        segments = sorted(
            report.critical_path, key=lambda s: s.seconds, reverse=True
        )[:max_path]
        if segments:
            lines.append("critical path (slowest steps first):")
            for segment in segments:
                node = segment.node or "server"
                lines.append(
                    f"  {segment.seconds:.6f}s  {segment.name} on {node}"
                    f" (slack {segment.slack:.6f}s)"
                )
        return "\n".join(lines)
    lines.append(
        f"rounds: {len(report.rounds)}  "
        f"compute {report.total_compute_seconds:.6f}s  "
        f"idle {report.total_idle_seconds:.6f}s  "
        f"retry amplification {report.retry_amplification:.2f}x"
    )
    if report.straggler is not None:
        lines.append(f"overall straggler: {report.straggler}")
    for r in report.rounds:
        desc = f"round {r.round_index}:"
        if r.straggler is not None:
            desc += (
                f" straggler={r.straggler}"
                f" ({r.straggler_seconds:.6f}s busy)"
            )
        desc += (
            f" compute={r.compute_seconds:.6f}s"
            f" idle={r.idle_seconds:.6f}s"
            f" imbalance={r.imbalance:.2f}x"
        )
        if r.deliveries:
            desc += (
                f" net={r.net_seconds:.6f}s"
                f" retries={max(r.attempts - r.deliveries, 0)}"
                f" (amplification {r.retry_amplification:.2f}x)"
            )
        lines.append(desc)
    segments = sorted(
        report.critical_path, key=lambda s: s.seconds, reverse=True
    )[:max_path]
    if segments:
        lines.append("critical path (slowest steps first):")
        for segment in segments:
            node = segment.node or "master"
            where = (
                f"round {segment.round_index}, "
                if segment.round_index is not None
                else ""
            )
            lines.append(
                f"  {segment.seconds:.6f}s  {segment.name} on {node}"
                f" ({where}slack {segment.slack:.6f}s)"
            )
    return "\n".join(lines)
