"""The reference checker of a telemetry event log: it reads the log
with ``repro.obs.telemetry.read_event_log`` and summarizes what it
holds."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Union

from repro.obs.telemetry import read_event_log


def validate_event_log(root: Union[str, Path]) -> Dict[str, Any]:
    """Schema-check a whole log; returns a summary dict of the event
    count, the unreadable-line count and the count per event type."""
    events, bad = read_event_log(root)
    types: Dict[str, int] = {}
    for event in events:
        types[event["type"]] = types.get(event["type"], 0) + 1
    return {
        "events_total": len(events),
        "bad_lines_total": bad,
        "types": dict(sorted(types.items())),
    }
