"""Validation for the ``repro-trace`` JSONL schema (v1 and v2).

v2 adds the optional ``node`` key on spans — the actor the work ran on
(master = absent, a slave id, or ``"net"``) — and tightens the checks:
duplicate span ids, malformed parent ids, orphan spans, non-monotonic
span timestamps and events outside their span all fail with a message
naming the offending record.  Parent/child *time containment* is
deliberately not enforced: master spans run on the recorder's wall
clock while adopted remote spans live on the shifted simulated
timeline, so a child may legitimately extend past its parent.

Ill-typed outside input is a violation, never an exception: a
non-string ``type``, a non-integer span reference and a non-list
histogram field are all reported, and ``bool`` is not accepted where
an integer or number is required (it subclasses ``int``).  Files are
read and dispatched here by :func:`repro.obs.validate.validate_file`
(``repro validate trace.jsonl``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.exporters import SCHEMA_VERSIONS

#: Tolerance for event-inside-span checks (clock rounding).
_TIME_EPSILON = 1e-6

#: Required keys (and permissive types) per record type.
_SPEC: Dict[str, Dict[str, tuple]] = {
    "meta": {"schema": (str,)},
    "span": {
        "id": (int,),
        "parent": (int, type(None)),
        "name": (str,),
        "depth": (int,),
        "start": (int, float),
        "end": (int, float),
        "attrs": (dict,),
    },
    "event": {
        "span": (int,),
        "name": (str,),
        "time": (int, float),
        "attrs": (dict,),
    },
    "counter": {"name": (str,), "labels": (dict,), "value": (int, float)},
    "gauge": {"name": (str,), "labels": (dict,), "value": (int, float)},
    "histogram": {
        "name": (str,),
        "labels": (dict,),
        "boundaries": (list,),
        "counts": (list,),
        "sum": (int, float),
        "count": (int,),
    },
}

#: Optional keys (v2) checked for type when present.
_OPTIONAL: Dict[str, Dict[str, tuple]] = {
    "span": {"node": (str,)},
}


def _typed(value: Any, types: tuple) -> bool:
    """``isinstance`` that does not let ``bool`` pass as a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def _within(time: Any, start: Any, end: Any) -> bool:
    """Whether ``time`` lies in ``[start, end]`` up to clock rounding."""
    try:
        return start - _TIME_EPSILON <= time <= end + _TIME_EPSILON
    except OverflowError:  # an integer beyond float range
        return False


def validate_records(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema violations of an iterable of parsed records (empty = valid)."""
    errors: List[str] = []
    span_times: Dict[int, tuple] = {}
    saw_meta = False
    for index, record in enumerate(records):
        where = f"record {index}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        kind = record.get("type")
        if index == 0:
            saw_meta = kind == "meta"
            if not saw_meta:
                errors.append(f"{where}: first record must be type 'meta'")
            elif record.get("schema") not in SCHEMA_VERSIONS:
                errors.append(
                    f"{where}: schema {record.get('schema')!r} not one of "
                    f"{list(SCHEMA_VERSIONS)}"
                )
        if not isinstance(kind, str) or kind not in _SPEC:
            errors.append(f"{where}: unknown type {kind!r}")
            continue
        for key, types in _SPEC[kind].items():
            if key not in record:
                errors.append(f"{where} ({kind}): missing key {key!r}")
            elif not _typed(record[key], types):
                errors.append(
                    f"{where} ({kind}): {key!r} has type "
                    f"{type(record[key]).__name__}"
                )
        for key, types in _OPTIONAL.get(kind, {}).items():
            if key in record and not isinstance(record[key], types):
                errors.append(
                    f"{where} ({kind}): optional {key!r} has type "
                    f"{type(record[key]).__name__}"
                )
        if kind == "span" and all(
            _typed(record.get(key), _SPEC["span"][key])
            for key in ("id", "parent", "start", "end")
        ):
            if record["end"] < record["start"]:
                errors.append(
                    f"{where} (span): non-monotonic timestamps — end "
                    f"{record['end']} precedes start {record['start']}"
                )
            parent = record["parent"]
            if parent is not None and parent not in span_times:
                errors.append(
                    f"{where} (span): orphan — parent {parent} not seen "
                    f"before child {record['id']}"
                )
            if record["id"] in span_times:
                errors.append(
                    f"{where} (span): duplicate span id {record['id']}"
                )
            span_times[record["id"]] = (record["start"], record["end"])
        if kind == "event" and _typed(record.get("span"), (int,)):
            span_id = record["span"]
            if span_id not in span_times:
                errors.append(f"{where} (event): unknown span {span_id}")
            elif _typed(record.get("time"), (int, float)):
                start, end = span_times[span_id]
                if not _within(record["time"], start, end):
                    errors.append(
                        f"{where} (event): time {record['time']} outside "
                        f"span {span_id} [{start}, {end}]"
                    )
        if (
            kind == "histogram"
            and isinstance(record.get("boundaries"), list)
            and isinstance(record.get("counts"), list)
        ):
            if len(record["counts"]) != len(record["boundaries"]) + 1:
                errors.append(
                    f"{where} (histogram): need len(boundaries)+1 counts"
                )
    if not saw_meta:
        errors.append("trace is empty (no meta record)")
    return errors
