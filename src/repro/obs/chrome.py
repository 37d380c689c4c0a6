"""Chrome trace-event exporter.

Converts a v1 trace (see :mod:`repro.obs.events`) into the Chrome
trace-event JSON format so a pipeline run can be opened directly in
``chrome://tracing`` / Perfetto.  Spans become complete (``"X"``)
events; span events become instants (``"i"``).

Track assignment: the main pipeline occupies thread lane 1; spans
recorded by worker-side tracers (span IDs carrying a ``w<N>-`` fan-out
prefix, see :class:`repro.obs.tracing.Tracer`) each get a stable lane of
their own, so parallel estimation jobs render side by side.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

#: pid used for every event (one process tree per trace)
_PID = 1
#: tid of the main pipeline lane
_MAIN_TID = 1


def _lane_of(span_id: str, lanes: Dict[str, int]) -> int:
    """Map a span ID to a Chrome thread lane via its fan-out prefix."""
    head, sep, _rest = span_id.partition(".")
    if not sep or not head.startswith("w"):
        return _MAIN_TID
    return lanes.setdefault(head, len(lanes) + _MAIN_TID + 1)


def to_chrome_trace(trace: Mapping[str, Any]) -> Dict[str, Any]:
    """Render a v1 trace as a Chrome trace-event object."""
    lanes: Dict[str, int] = {}
    events: List[Dict[str, Any]] = [{
        "ph": "M",
        "pid": _PID,
        "tid": _MAIN_TID,
        "name": "process_name",
        "args": {"name": f"repro {trace.get('name', 'trace')} "
                         f"[{trace.get('trace_id', '?')}]"},
    }]
    for span in trace.get("spans", []):
        tid = _lane_of(span["span_id"], lanes)
        args = dict(span.get("attrs", {}))
        args["span_id"] = span["span_id"]
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        events.append({
            "ph": "X",
            "pid": _PID,
            "tid": tid,
            "name": span["name"],
            "cat": "repro",
            "ts": span["start_us"],
            "dur": max(span["duration_us"], 1),
            "args": args,
        })
        for event in span.get("events", []):
            events.append({
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": tid,
                "name": event["name"],
                "cat": "repro",
                "ts": span["start_us"],
                "args": dict(event.get("attrs", {})),
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": trace.get("schema"),
            "trace_id": trace.get("trace_id"),
        },
    }


def validate_chrome_trace(chrome: Mapping[str, Any]) -> None:
    """Light structural check of an exported Chrome trace (used by the
    tests alongside the v1 validator)."""
    events = chrome.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("chrome trace: traceEvents must be a "
                         "non-empty list")
    for i, event in enumerate(events):
        for key in ("ph", "pid", "tid", "name"):
            if key not in event:
                raise ValueError(f"chrome trace: event {i} missing {key!r}")
        if event["ph"] == "X" and ("ts" not in event or "dur" not in event):
            raise ValueError(f"chrome trace: event {i} lacks ts/dur")
    json.dumps(chrome)  # must be serializable as-is


def write_chrome_trace(trace: Mapping[str, Any], path: str) -> None:
    """Convert, validate, and write a Chrome trace file."""
    chrome = to_chrome_trace(trace)
    validate_chrome_trace(chrome)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome, handle, indent=2, sort_keys=True)
        handle.write("\n")
