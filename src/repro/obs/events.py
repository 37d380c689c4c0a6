"""The structured JSON trace/event log: serialization and validation.

A serialized trace is one JSON object::

    {
      "schema": "repro.obs/trace/v1",
      "trace_id": "4f2a...",
      "name": "analyze",
      "created_us": 1730000000000000,
      "spans": [
        {"span_id": "1", "parent_id": null, "name": "pipeline",
         "start_us": ..., "duration_us": ..., "attrs": {...},
         "events": [{"name": "resilience.degraded", "attrs": {...}}]},
        ...
      ],
      "events": [...]          # trace-level events (no open span)
    }

:func:`validate_trace` is the schema checker used by tests and the CLI
after writing a trace file — validation failures raise :class:`TraceValidationError` with a pointed message.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .tracing import TRACE_SCHEMA


class TraceValidationError(ValueError):
    """A trace object does not conform to the v1 schema."""


_SPAN_REQUIRED = ("span_id", "name", "start_us", "duration_us")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise TraceValidationError(message)


def _check_event(event: Any, where: str) -> None:
    _check(isinstance(event, Mapping), f"{where}: event is not an object")
    _check(
        isinstance(event.get("name"), str) and event["name"],
        f"{where}: event lacks a non-empty 'name'",
    )
    attrs = event.get("attrs", {})
    _check(isinstance(attrs, Mapping), f"{where}: event attrs not an object")
    try:
        json.dumps(attrs)
    except (TypeError, ValueError) as exc:
        raise TraceValidationError(
            f"{where}: event attrs not JSON-serializable: {exc}"
        ) from None


def validate_trace(trace: Mapping[str, Any]) -> None:
    """Raise :class:`TraceValidationError` unless ``trace`` is a valid
    v1 trace object (correct schema tag, well-formed spans, unique span
    IDs, every parent resolvable, JSON-safe attributes)."""
    _check(isinstance(trace, Mapping), "trace is not an object")
    _check(
        trace.get("schema") == TRACE_SCHEMA,
        f"schema must be {TRACE_SCHEMA!r}, got {trace.get('schema')!r}",
    )
    _check(
        isinstance(trace.get("trace_id"), str) and trace["trace_id"],
        "trace_id must be a non-empty string",
    )
    spans = trace.get("spans")
    _check(isinstance(spans, list), "spans must be a list")

    seen: set = set()
    for i, span in enumerate(spans):
        where = f"spans[{i}]"
        _check(isinstance(span, Mapping), f"{where}: not an object")
        for key in _SPAN_REQUIRED:
            _check(key in span, f"{where}: missing {key!r}")
        _check(
            isinstance(span["span_id"], str) and span["span_id"],
            f"{where}: span_id must be a non-empty string",
        )
        _check(
            span["span_id"] not in seen,
            f"{where}: duplicate span_id {span['span_id']!r}",
        )
        seen.add(span["span_id"])
        _check(
            isinstance(span["name"], str) and span["name"],
            f"{where}: name must be a non-empty string",
        )
        for key in ("start_us", "duration_us"):
            value = span[key]
            _check(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 0,
                f"{where}: {key} must be a non-negative integer",
            )
        attrs = span.get("attrs", {})
        _check(isinstance(attrs, Mapping), f"{where}: attrs not an object")
        try:
            json.dumps(attrs)
        except (TypeError, ValueError) as exc:
            raise TraceValidationError(
                f"{where}: attrs not JSON-serializable: {exc}"
            ) from None
        events = span.get("events", [])
        _check(isinstance(events, list), f"{where}: events not a list")
        for j, event in enumerate(events):
            _check_event(event, f"{where}.events[{j}]")

    # Parent links second pass: every non-null parent must resolve.
    for i, span in enumerate(spans):
        parent = span.get("parent_id")
        _check(
            parent is None or (isinstance(parent, str) and parent in seen),
            f"spans[{i}]: parent_id {parent!r} does not name a span",
        )

    for j, event in enumerate(trace.get("events", [])):
        _check_event(event, f"events[{j}]")


def write_trace(trace: Mapping[str, Any], path: str) -> None:
    """Validate then write a trace as indented JSON."""
    validate_trace(trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=2, sort_keys=True)
        handle.write("\n")


def iter_events(
    trace: Mapping[str, Any], name: Optional[str] = None
) -> Iterator[Tuple[Optional[Dict[str, Any]], Dict[str, Any]]]:
    """Yield ``(span, event)`` pairs across the whole trace, optionally
    filtered by event name (span is ``None`` for trace-level events)."""
    for span in trace.get("spans", []):
        for event in span.get("events", []):
            if name is None or event.get("name") == name:
                yield span, event
    for event in trace.get("events", []):
        if name is None or event.get("name") == name:
            yield None, event


def spans_by_name(
    trace: Mapping[str, Any], name: str
) -> List[Dict[str, Any]]:
    """All spans of one name, in recorded order."""
    return [s for s in trace.get("spans", []) if s.get("name") == name]
