"""Always-on flight recorder: the last N seconds of serve telemetry.

Production incidents on the serving path (a 500, a shed burst, a drain)
are only debuggable if the seconds *before* the trigger were recorded —
but always-on full tracing to disk is too expensive.  The flight
recorder squares that: a bounded in-memory ring of **completed** span
and event records (cheap: one lock, one ``deque.append`` per record,
no I/O) that the server feeds every finished request into, plus
:meth:`FlightRecorder.trigger` which atomically dumps the recent window
to disk as a schema-valid ``repro-trace/v2`` JSONL file and a
Prometheus metrics snapshot.

Design constraints, in order:

* **Never perturb the solve.** Traces are added *after* a request
  finishes, from already-exported records; the ring touches no solver
  state and no RNG.
* **Schema-valid dumps.** Span ids from different request recorders
  collide (every recorder counts from 1), so ids are remapped onto one
  monotonic namespace at append time.  At dump time, spans whose parent
  fell out of the window are re-parented to root and events whose span
  is gone are dropped — the result always passes
  ``repro validate``.
* **Debounced.** A 500-storm must produce one dump, not one per
  failure: triggers inside ``debounce_seconds`` of the last dump are
  counted but suppressed (``force=True`` — the manual debug endpoint —
  bypasses this).
* **One timeline.** Each added trace is shifted so its newest span ends
  at ring-insertion time on the flight clock; "the last N seconds"
  then means wall seconds regardless of each recorder's clock origin.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.obs.exporters import SCHEMA_VERSION, metric_records, prometheus_text
from repro.obs.metrics import MetricsRegistry

#: Default ring capacity (records, spans + events).
DEFAULT_MAX_RECORDS = 4096

#: Default dump window and debounce, in seconds.
DEFAULT_WINDOW_SECONDS = 30.0
DEFAULT_DEBOUNCE_SECONDS = 30.0


@dataclass
class FlightDump:
    """One on-disk dump produced by a trigger."""

    path: str
    metrics_path: str
    reason: str
    records: int
    trace_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dump": self.path,
            "metrics": self.metrics_path,
            "reason": self.reason,
            "records": self.records,
            "trace_ids": list(self.trace_ids),
        }


class FlightRecorder:
    """Bounded ring of completed telemetry + triggered window dumps."""

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_records: int = DEFAULT_MAX_RECORDS,
        debounce_seconds: float = DEFAULT_DEBOUNCE_SECONDS,
        directory: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        if debounce_seconds < 0:
            raise ValueError("debounce_seconds must be >= 0")
        self.window_seconds = float(window_seconds)
        self.debounce_seconds = float(debounce_seconds)
        self.directory = directory
        self.registry = registry
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=int(max_records))
        self._next_id = 1
        self._last_dump_at: Optional[float] = None
        self._dump_seq = 0
        self.last_dump: Optional[FlightDump] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------
    def add_trace(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append one finished trace's span/event records to the ring.

        ``records`` is :func:`repro.obs.exporters.trace_records` output;
        meta and metric records are skipped (the dump carries a fresh
        metrics snapshot).  Span ids are remapped onto the ring's global
        namespace and times shifted so the newest span ends "now" on
        the flight clock.  Returns the number of records appended.
        """
        spans: List[Dict[str, Any]] = []
        events: List[Dict[str, Any]] = []
        latest = None
        for record in records:
            kind = record.get("type")
            if kind == "span":
                spans.append(record)
                end = record.get("end", record.get("start", 0.0))
                if latest is None or end > latest:
                    latest = end
            elif kind == "event":
                events.append(record)
        if not spans:
            return 0
        now = self._clock()
        offset = now - float(latest)
        with self._lock:
            idmap: Dict[int, int] = {}
            appended = 0
            for span in spans:
                new_id = self._next_id
                self._next_id += 1
                idmap[span["id"]] = new_id
                shifted = dict(span)
                shifted["id"] = new_id
                parent = span.get("parent")
                shifted["parent"] = idmap.get(parent)
                shifted["start"] = float(span["start"]) + offset
                shifted["end"] = float(span["end"]) + offset
                self._ring.append(shifted)
                appended += 1
            for event in events:
                span_id = idmap.get(event.get("span"))
                if span_id is None:
                    continue
                shifted = dict(event)
                shifted["span"] = span_id
                shifted["time"] = float(event["time"]) + offset
                self._ring.append(shifted)
                appended += 1
        return appended

    def note(self, name: str, **attrs: Any) -> None:
        """Record a zero-length marker span (shed, drain, transition)."""
        now = self._clock()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._ring.append(
                {
                    "type": "span",
                    "id": span_id,
                    "parent": None,
                    "name": name,
                    "depth": 0,
                    "start": now,
                    "end": now,
                    "attrs": {
                        k: v
                        for k, v in attrs.items()
                        if isinstance(v, (str, int, float, bool))
                        or v is None
                    },
                }
            )

    # ------------------------------------------------------------------
    def trigger(
        self,
        reason: str,
        detail: Optional[str] = None,
        trace_id: Optional[str] = None,
        force: bool = False,
    ) -> Optional[FlightDump]:
        """Count a trigger and, debounce permitting, dump the window.

        Returns the :class:`FlightDump` on a write, ``None`` when the
        trigger was debounced or no ``directory`` is configured.
        """
        now = self._clock()
        if self.registry is not None:
            self.registry.counter(
                "serve.flight_triggers", {"reason": reason}
            ).inc()
        with self._lock:
            debounced = (
                not force
                and self._last_dump_at is not None
                and now - self._last_dump_at < self.debounce_seconds
            )
            if debounced or self.directory is None:
                suppressed = True
            else:
                suppressed = False
                self._last_dump_at = now
                self._dump_seq += 1
                seq = self._dump_seq
                window = [
                    dict(record)
                    for record in self._ring
                    if self._in_window(record, now)
                ]
        if suppressed:
            if self.registry is not None and debounced:
                self.registry.counter("serve.flight_suppressed").inc()
            return None
        dump = self._write_dump(seq, reason, detail, trace_id, now, window)
        if self.registry is not None:
            self.registry.counter("serve.flight_dumps").inc()
        self.last_dump = dump
        return dump

    def _in_window(self, record: Dict[str, Any], now: float) -> bool:
        horizon = now - self.window_seconds
        if record.get("type") == "span":
            return float(record.get("end", 0.0)) >= horizon
        return float(record.get("time", 0.0)) >= horizon

    def _write_dump(
        self,
        seq: int,
        reason: str,
        detail: Optional[str],
        trace_id: Optional[str],
        now: float,
        window: List[Dict[str, Any]],
    ) -> FlightDump:
        # Orphan repair: a span whose parent was evicted from the ring
        # (or aged out of the window) becomes a root; an event whose
        # span is gone is dropped.  Ring order already puts parents
        # before children, so one pass suffices.
        present = {
            record["id"] for record in window if record.get("type") == "span"
        }
        records: List[Dict[str, Any]] = []
        trace_ids: List[str] = []
        seen_tids = set()
        for record in window:
            if record.get("type") == "span":
                if record.get("parent") not in present:
                    record["parent"] = None
                    record["depth"] = 0
                tid = (record.get("attrs") or {}).get("trace_id")
                if isinstance(tid, str) and tid not in seen_tids:
                    seen_tids.add(tid)
                    trace_ids.append(tid)
                records.append(record)
            elif record.get("span") in present:
                records.append(record)
        meta: Dict[str, Any] = {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "flight": {
                "reason": reason,
                "detail": detail,
                "trace_id": trace_id,
                "window_seconds": self.window_seconds,
                "dumped_at": now,
                "spans": len(present),
            },
        }
        lines = [meta] + records
        if self.registry is not None:
            lines.extend(metric_records(self.registry))

        os.makedirs(self.directory, exist_ok=True)
        safe_reason = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in reason
        )
        stem = f"flight-{seq:04d}-{safe_reason}"
        path = os.path.join(self.directory, stem + ".trace.jsonl")
        metrics_path = os.path.join(self.directory, stem + ".metrics.txt")
        self._atomic_write(
            path,
            "".join(
                json.dumps(record, sort_keys=True, default=str) + "\n"
                for record in lines
            ),
        )
        self._atomic_write(
            metrics_path,
            prometheus_text(self.registry)
            if self.registry is not None
            else "",
        )
        return FlightDump(
            path=path,
            metrics_path=metrics_path,
            reason=reason,
            records=len(lines),
            trace_ids=trace_ids,
        )

    @staticmethod
    def _atomic_write(path: str, content: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
def inspect_dump(records: List[Dict[str, Any]]) -> str:
    """Human-readable digest of one flight dump (``repro flight``).

    ``records`` are the dump's parsed lines, already read and checked
    against the trace schema (:func:`repro.obs.validate.read_artifact`,
    :func:`repro.obs.schema.validate_records`).  Summarizes the window
    (reason, trace ids, span counts) and runs the critical-path
    analysis on whatever rounds the window captured.
    """
    from repro.obs.analysis import analyze_records, format_report

    lines: List[str] = []
    flight = records[0].get("flight") if records else None
    if isinstance(flight, dict) and flight:
        lines.append(
            f"trigger: {flight.get('reason')}"
            + (
                f" ({flight.get('detail')})"
                if flight.get("detail")
                else ""
            )
        )
        if flight.get("trace_id"):
            lines.append(f"trigger trace id: {flight['trace_id']}")
        lines.append(
            f"window: {flight.get('window_seconds')}s,"
            f" {flight.get('spans')} spans"
        )
    spans = [r for r in records if r.get("type") == "span"]
    by_name: Dict[str, int] = {}
    trace_ids: List[str] = []
    seen = set()
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0) + 1
        tid = (span.get("attrs") or {}).get("trace_id")
        if isinstance(tid, str) and tid not in seen:
            seen.add(tid)
            trace_ids.append(tid)
    if by_name:
        lines.append("spans by name:")
        for name in sorted(by_name):
            lines.append(f"  {name}: {by_name[name]}")
    if trace_ids:
        lines.append(f"trace ids in window: {len(trace_ids)}")
        for tid in trace_ids[:8]:
            lines.append(f"  {tid}")
    lines.append(format_report(analyze_records(records)))
    return "\n".join(lines)
