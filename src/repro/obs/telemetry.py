"""The durable telemetry event log: append-only NDJSON, always on.

Traces (:mod:`repro.obs.tracing`) answer "what happened inside this one
request"; the *event log* answers "what has this service been doing" —
a durable, replayable record of every operationally interesting moment:
service requests, degradations, circuit-breaker transitions, cache
quarantines, deadline expiries, injected faults, sampled traces, chaos
case verdicts.

Format: one JSON object per line (NDJSON), so the log can be appended
to forever, tailed with standard tools, and survive a crash mid-write —
a torn final line is *data loss of one event*, never a reader crash.
Each event::

    {"schema": "repro.obs/event/v1", "seq": 17,
     "ts_us": 1730000000000000, "type": "service.request",
     "attrs": {...}, "trace_id": "4f2a...", "span_id": "3"}

``trace_id``/``span_id`` are attached automatically when a trace is
active in the emitting context, so event-log lines join against sampled
span trees.

Durability and bounds:

- every line is flushed to the OS before :meth:`EventLog.record`
  returns, so a process that dies — ``kill -9`` included — loses no
  event it recorded;
- power-loss durability follows behind the writer: one syncer thread
  per log fsyncs the live segment :data:`SYNC_COALESCE_S` after a line
  is written, so a burst shares one fsync and an idle line is on stable
  storage within that interval plus one fsync.  :meth:`EventLog.sync`
  is the barrier — everything recorded before the call is synced when
  it returns — and ``close()``, rotation and the service's ``drain()``
  go through it.  ``fsync=False`` owes no sync and starts no thread;
- when the current file exceeds ``max_bytes`` it is atomically renamed
  to ``events-<NNNNNN>.ndjson`` (``os.replace``, the same primitive as
  :mod:`repro.resilience.atomic`) and a fresh file starts; only the
  newest ``max_files`` rotated segments are kept;
- :func:`read_event_log` skips unparseable or schema-invalid lines and
  *counts* them (exposed as ``repro_eventlog_bad_lines_total``) — a
  corrupt log can cost events, never a crash or a wrong report.

Deep modules (circuit breaker, degradation accounting, fault injector,
cache quarantine) cannot see the service's log instance, so they emit
through the module-level *sink registry*: :func:`emit` costs one global
read when nothing is installed, mirroring the fault-point and tracing
no-op conventions.
"""

from __future__ import annotations

import io
import json
import os
import re
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from . import tracing

#: identifies the NDJSON event format
EVENT_SCHEMA = "repro.obs/event/v1"

#: the live (append-target) segment name
CURRENT_SEGMENT = "events.ndjson"

#: rotated segment names: events-000001.ndjson, ...
_SEGMENT_RE = re.compile(r"^events-(\d{6})\.ndjson$")

#: rotation defaults: 4 MiB live segment, 4 rotated segments kept
DEFAULT_MAX_BYTES = 4 << 20
DEFAULT_MAX_FILES = 4

#: events kept in the in-memory tail ring (the ``events`` protocol op
#: and ``repro top`` read these without touching disk)
DEFAULT_TAIL_EVENTS = 512

#: how long the syncer lets lines gather before it fsyncs them.  An
#: fsync costs what tens of flushed lines do (about 0.5 ms against
#: 15 us on a disk), so it is paid per burst, not per line; 20 ms bounds
#: how long a flushed line can wait for stable storage and keeps a
#: loaded log under 50 fsyncs a second
SYNC_COALESCE_S = 0.02


class EventValidationError(ValueError):
    """An event object does not conform to the v1 schema."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise EventValidationError(message)


def validate_event(event: Any) -> None:
    """Raise :class:`EventValidationError` unless ``event`` is a valid
    v1 event object."""
    _check(isinstance(event, Mapping), "event is not an object")
    _check(
        event.get("schema") == EVENT_SCHEMA,
        f"schema must be {EVENT_SCHEMA!r}, got {event.get('schema')!r}",
    )
    _check(
        isinstance(event.get("type"), str) and event["type"],
        "type must be a non-empty string",
    )
    for key in ("seq", "ts_us"):
        value = event.get(key)
        _check(
            isinstance(value, int) and not isinstance(value, bool)
            and value >= 0,
            f"{key} must be a non-negative integer",
        )
    attrs = event.get("attrs", {})
    _check(isinstance(attrs, Mapping), "attrs must be an object")
    try:
        json.dumps(attrs)
    except (TypeError, ValueError) as exc:
        raise EventValidationError(
            f"attrs not JSON-serializable: {exc}"
        ) from None
    for key in ("trace_id", "span_id"):
        value = event.get(key)
        _check(
            value is None or (isinstance(value, str) and value),
            f"{key} must be a non-empty string when present",
        )


def make_event(
    type: str,
    attrs: Optional[Mapping[str, Any]] = None,
    seq: int = 0,
) -> Dict[str, Any]:
    """Build one event dict, stamping trace correlation from the active
    tracing context (satellite of the trace/event join)."""
    event: Dict[str, Any] = {
        "schema": EVENT_SCHEMA,
        "seq": seq,
        "ts_us": int(time.time() * 1e6),
        "type": type,
        "attrs": dict(attrs or {}),
    }
    tracer = tracing.active_tracer()
    if tracer is not None:
        event["trace_id"] = tracer.trace_id
        span_id = tracing.current_span_id()
        if span_id is not None:
            event["span_id"] = span_id
    return event


class EventLog:
    """An append-only, size-rotated NDJSON event log (thread-safe).

    ``root=None`` keeps events purely in the in-memory tail ring — the
    always-on default for embedded services and tests; pass a directory
    to persist.  ``fsync=False`` gives up power-loss durability (every
    line is still flushed to the OS); see the module docstring.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        fsync: bool = True,
    ):
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        self.root = Path(root) if root is not None else None
        self.max_bytes = int(max_bytes)
        self.max_files = max(int(max_files), 1)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._seq = 0
        self._handle: Optional[io.TextIOWrapper] = None
        self._bytes = 0
        self._tail: Deque[Dict[str, Any]] = deque(maxlen=DEFAULT_TAIL_EVENTS)
        self.events_total = 0
        self.rotations_total = 0
        self.bad_lines_total = 0
        # lines written that a sync is owed for, and how many of them a
        # finished fsync covers
        self._written = 0
        self._synced = 0
        self.syncs_total = 0
        self._dirty = threading.Event()
        self._syncer: Optional[threading.Thread] = None
        self._syncer_stop: Optional[threading.Event] = None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._recover()

    # -- writing ---------------------------------------------------------

    def record(
        self,
        type: str,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Append one event; returns the event dict written."""
        with self._lock:
            self._seq += 1
            event = make_event(type, attrs, seq=self._seq)
            self.events_total += 1
            self._tail.append(event)
            if self.root is not None:
                self._write_locked(event)
        return event

    def _write_locked(self, event: Dict[str, Any]) -> None:
        if self._handle is None:
            self._open_locked()
        line = json.dumps(event, sort_keys=True,
                          separators=(",", ":")) + "\n"
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            self._written += 1
            if self._syncer is None:
                # its own stop event: a log reopened by a late record
                # must not un-stop the syncer ``close()`` is joining
                self._syncer_stop = threading.Event()
                syncer = threading.Thread(
                    target=self._sync_behind, args=(self._syncer_stop,),
                    name="eventlog-sync", daemon=True,
                )
                syncer.start()
                self._syncer = syncer
            self._dirty.set()
        self._bytes += len(line.encode("utf-8"))
        if self._bytes >= self.max_bytes:
            self._rotate_locked()

    def _sync_behind(self, stop: threading.Event) -> None:
        """The syncer: sleep until a line is written, let the burst it
        starts gather, sync; ``close()`` (which syncs inline) ends it."""
        while True:
            self._dirty.wait()
            self._dirty.clear()
            if stop.wait(SYNC_COALESCE_S):
                return
            try:
                self.sync()
            except OSError:
                # the lines stay owed (``unsynced_lines`` shows them)
                # and the next burst tries again
                pass

    def sync(self) -> None:
        """Barrier: every line recorded before the call is on stable
        storage when it returns.  The fsync runs outside the lock, on a
        duplicate descriptor that a concurrent rotation cannot close,
        so writers never wait for it."""
        with self._lock:
            covers = self._written
            if covers == self._synced or self._handle is None:
                return
            fd = os.dup(self._handle.fileno())
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        with self._lock:
            self.syncs_total += 1
            self._synced = max(self._synced, covers)

    def _sync_locked(self) -> None:
        """Sync inline what is owed for the segment about to be closed."""
        if self._synced < self._written:
            os.fsync(self._handle.fileno())
            self.syncs_total += 1
            self._synced = self._written

    def _open_locked(self) -> None:
        path = self.root / CURRENT_SEGMENT
        self._handle = open(path, "a", encoding="utf-8")
        self._bytes = path.stat().st_size

    def _rotate_locked(self) -> None:
        """Atomically rename the full live segment aside and start a
        fresh one; prune segments beyond ``max_files``."""
        self._sync_locked()
        self._handle.close()
        self._handle = None
        index = max(
            (i for i, _ in _segments(self.root)), default=0
        ) + 1
        os.replace(
            self.root / CURRENT_SEGMENT,
            self.root / f"events-{index:06d}.ndjson",
        )
        _fsync_dir(self.root)
        self.rotations_total += 1
        for _index, path in _segments(self.root)[:-self.max_files]:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._open_locked()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._sync_locked()
                self._handle.close()
                self._handle = None
            syncer, self._syncer = self._syncer, None
            stop = self._syncer_stop
        if syncer is not None:
            stop.set()
            self._dirty.set()
            syncer.join()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery and reading --------------------------------------------

    def _recover(self) -> None:
        """Resume an existing log directory: continue the sequence past
        the highest recorded ``seq`` and count (never raise on) bad
        lines left by a crash."""
        events, bad = read_event_log(self.root)
        self.bad_lines_total = bad
        if events:
            self._seq = max(e.get("seq", 0) for e in events)
            for event in events[-(self._tail.maxlen or 0):]:
                self._tail.append(event)

    def tail(self, limit: int = 100,
             type: Optional[str] = None) -> List[Dict[str, Any]]:
        """The newest ``limit`` in-memory events (oldest first),
        optionally filtered by event type."""
        with self._lock:
            events = list(self._tail)
        if type is not None:
            events = [e for e in events if e.get("type") == type]
        return events[-max(limit, 0):]

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "dir": str(self.root) if self.root else None,
                "events_total": self.events_total,
                "rotations_total": self.rotations_total,
                "bad_lines_total": self.bad_lines_total,
                "syncs_total": self.syncs_total,
                "unsynced_lines": self._written - self._synced,
                "max_bytes": self.max_bytes,
                "max_files": self.max_files,
            }


def _fsync_dir(root: Path) -> None:
    """Make a rename durable (same discipline as
    :mod:`repro.resilience.atomic`); best-effort on platforms where
    directories cannot be fsync'd."""
    try:
        fd = os.open(root, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _segments(root: Path) -> List[Tuple[int, Path]]:
    """Rotated segments as ``(index, path)``, oldest first."""
    out = []
    try:
        names = os.listdir(root)
    except OSError:
        return []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match:
            out.append((int(match.group(1)), root / name))
    return sorted(out)


def iter_event_lines(
    path: Union[str, Path]
) -> Iterator[Tuple[Optional[Dict[str, Any]], str]]:
    """Yield ``(event_or_None, raw_line)`` per non-blank line of one
    segment; ``None`` marks a line that failed to parse or validate."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                event = json.loads(stripped)
                validate_event(event)
            except (json.JSONDecodeError, EventValidationError):
                yield None, stripped
                continue
            yield event, stripped


def read_event_log(
    root: Union[str, Path]
) -> Tuple[List[Dict[str, Any]], int]:
    """Read a whole log (a directory of segments, or one ``.ndjson``
    file) in recorded order; returns ``(events, bad_line_count)``.
    Truncated or corrupt lines — a torn tail after a crash, a flipped
    bit mid-file — are skipped and counted, never raised."""
    root = Path(root)
    if root.is_dir():
        paths = [p for _, p in _segments(root)]
        current = root / CURRENT_SEGMENT
        if current.exists():
            paths.append(current)
    else:
        paths = [root]
    events: List[Dict[str, Any]] = []
    bad = 0
    for path in paths:
        try:
            for event, _ in iter_event_lines(path):
                if event is None:
                    bad += 1
                else:
                    events.append(event)
        except OSError:
            bad += 1
    return events, bad


# ---------------------------------------------------------------------------
# The sink registry.  Deep modules (breaker, degrade, faults, cache
# quarantine) call emit(); the service installs its EventLog as a sink
# for its lifetime.  One module-global read when nothing is installed.

_SINKS: Tuple[Callable[..., Any], ...] = ()
_SINKS_LOCK = threading.Lock()


def install_sink(sink: Callable[..., Any]) -> None:
    """Register a sink: any callable ``sink(type, attrs_dict)``
    (typically a bound :meth:`EventLog.record`)."""
    global _SINKS
    with _SINKS_LOCK:
        if sink not in _SINKS:
            _SINKS = _SINKS + (sink,)


def remove_sink(sink: Callable[..., Any]) -> None:
    global _SINKS
    with _SINKS_LOCK:
        # Equality, not identity: a bound method like ``telemetry._sink``
        # is a fresh object on every attribute access, but compares equal
        # across accesses.
        _SINKS = tuple(s for s in _SINKS if s != sink)


def emit(type: str, **attrs: Any) -> None:
    """Send one event to every installed sink.  No-op (one global read)
    when nothing is installed, so instrumented hot paths stay free."""
    sinks = _SINKS
    if not sinks:
        return
    for sink in sinks:
        try:
            sink(type, attrs)
        except Exception:  # noqa: BLE001 - telemetry must never take
            # down the operation it is observing
            pass
