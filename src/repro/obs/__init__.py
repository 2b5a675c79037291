"""Zero-dependency solver observability: spans, metrics, exporters.

The package gives every solver in the reproduction a common telemetry
surface without perturbing the hot path:

* :class:`~repro.obs.recorder.Recorder` — the interface the solvers talk
  to.  The default :data:`NULL_RECORDER` is a no-op (a handful of cheap
  method dispatches per *round*, never per player), so instrumented code
  costs nothing unless a recorder is attached.
* :class:`~repro.obs.recorder.TraceRecorder` — collects hierarchical
  spans (``solve`` > ``round``), a metrics registry (counters, gauges,
  fixed-boundary histograms) and per-round solver telemetry (frontier
  size, moves, Eq. 3 cost evaluations, potential delta).
* :mod:`~repro.obs.exporters` — JSONL trace files (``repro-trace/v2``),
  Prometheus-style text dumps and a human summary tree.
* :mod:`~repro.obs.schema` — validation for the JSONL schema.
* :mod:`~repro.obs.validate` — the one artifact reader and checker
  behind ``repro validate FILE`` (traces, flight dumps, Chrome traces,
  result payloads, error envelopes); not imported by this package.
* :mod:`~repro.obs.context` — causal trace propagation across the
  simulated cluster (master, slaves, network) for the DG framework.
* :mod:`~repro.obs.analysis` — critical-path / straggler / retry
  analysis of distributed traces.
* :mod:`~repro.obs.chrome` — Chrome trace-event (Perfetto-loadable)
  export and its validator.
* :mod:`~repro.obs.memory` — ``tracemalloc``-backed memory recorder
  attaching peak/net heap allocation to every span.

Opt-in is either explicit (``SolveOptions(recorder=...)`` /
``recorder=`` kwargs) or ambient via the context manager::

    with obs.recording() as rec:
        repro.partition(instance, solver="gt")
    print(obs.summary_tree(rec))
    obs.write_jsonl(rec, "trace.jsonl")

Instrumentation never touches solver randomness or state: assignments
are byte-identical with tracing on or off.
"""

from repro.obs.analysis import (
    RequestReport,
    TraceReport,
    analysis_errors,
    analyze_recorder,
    analyze_records,
    format_report,
)
from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.clock import ManualClock, MonotonicClock
from repro.obs.context import (
    TRACEPARENT_HEADER,
    RemoteSpan,
    SpanCollector,
    TraceContext,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.exporters import (
    SCHEMA_VERSION,
    SCHEMA_VERSIONS,
    jsonl_lines,
    metric_records,
    prometheus_text,
    summary_tree,
    trace_records,
    write_jsonl,
)
from repro.obs.flight import FlightDump, FlightRecorder, inspect_dump
from repro.obs.metrics import (
    DEFAULT_BOUNDARIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.memory import (
    MemoryRecorder,
    memory_recording,
    memory_summary,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceRecorder,
    active_recorder,
    current_recorder,
    recording,
    use_recorder,
)
from repro.obs.schema import validate_records
from repro.obs.spans import Span

__all__ = [
    "Counter",
    "DEFAULT_BOUNDARIES",
    "FlightDump",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MemoryRecorder",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "RemoteSpan",
    "RequestReport",
    "SCHEMA_VERSION",
    "SCHEMA_VERSIONS",
    "Span",
    "SpanCollector",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "TraceRecorder",
    "TraceReport",
    "active_recorder",
    "analysis_errors",
    "analyze_recorder",
    "analyze_records",
    "chrome_trace",
    "current_recorder",
    "format_report",
    "format_traceparent",
    "inspect_dump",
    "jsonl_lines",
    "memory_recording",
    "memory_summary",
    "metric_records",
    "new_trace_id",
    "parse_traceparent",
    "prometheus_text",
    "recording",
    "summary_tree",
    "trace_records",
    "use_recorder",
    "validate_records",
    "write_chrome_trace",
    "write_jsonl",
]
