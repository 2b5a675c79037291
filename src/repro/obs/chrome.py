"""Chrome trace-event exporter (loadable in Perfetto / chrome://tracing).

Converts ``repro-trace`` records into the Trace Event JSON format:
every span becomes a complete event (``ph="X"``) on the track of the
node it ran on (master, each slave, the network), span events become
instant events (``ph="i"``), and each track is named via ``ph="M"``
thread-name metadata.  Timestamps are microseconds, shifted so the
earliest span starts at 0.  :func:`validate_chrome` checks an export;
``repro validate trace.json`` runs it on a file.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import TraceRecorder

_PID = 1
_MASTER_TRACK = "master"


def chrome_events(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Trace-event list for exported ``repro-trace`` records."""
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    if not spans:
        return []
    origin = min(float(span["start"]) for span in spans)

    tracks: Dict[str, int] = {_MASTER_TRACK: 0}
    span_tracks: Dict[Any, str] = {}
    out: List[Dict[str, Any]] = []
    for span in spans:
        node = span.get("node") or _MASTER_TRACK
        tid = tracks.setdefault(node, len(tracks))
        span_tracks[span.get("id")] = node
        attrs = dict(span.get("attrs") or {})
        out.append(
            {
                "name": span.get("name", ""),
                "cat": str(span.get("name", "")).split(".", 1)[0],
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "ts": _us(float(span["start"]) - origin),
                "dur": _us(float(span["end"]) - float(span["start"])),
                "args": attrs,
            }
        )
    for event in events:
        node = span_tracks.get(event.get("span"), _MASTER_TRACK)
        out.append(
            {
                "name": event.get("name", ""),
                "cat": str(event.get("name", "")).split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": tracks.get(node, 0),
                "ts": _us(float(event.get("time", origin)) - origin),
                "args": dict(event.get("attrs") or {}),
            }
        )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": node},
        }
        for node, tid in sorted(tracks.items(), key=lambda item: item[1])
    ]
    return meta + out


def _us(seconds: float) -> float:
    """Seconds on the recorder clock -> trace-event microseconds."""
    return round(seconds * 1e6, 3)


def chrome_trace(recorder: "TraceRecorder") -> Dict[str, Any]:
    """Chrome trace object for a live recorder."""
    from repro.obs.exporters import trace_records

    return chrome_trace_from_records(list(trace_records(recorder)))


def chrome_trace_from_records(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Chrome trace object (the JSON Object Format) for records."""
    return {
        "traceEvents": chrome_events(records),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(recorder: "TraceRecorder", path: str) -> int:
    """Write the recorder's trace to ``path``; returns the event count."""
    trace = chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True, default=str)
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
def validate_chrome(trace: Any) -> List[str]:
    """Violations of the Trace Event JSON Object Format (empty = valid)."""
    errors: List[str] = []
    if not isinstance(trace, dict):
        return ["top level must be a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if not isinstance(phase, str) or not phase:
            errors.append(f"{where}: missing phase 'ph'")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key!r} must be an integer")
        if phase in ("X", "i", "B", "E"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: 'ts' must be a number >= 0")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'dur' must be a number >= 0")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
    return errors
