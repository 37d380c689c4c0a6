"""Pipeline-wide tracing: hierarchical wall-time spans under one trace ID.

The framework is a four-step compiler pipeline whose cost is dominated by
search-space sizes and ILP solve behaviour; this module makes that
visible.  A *trace* is a tree of *spans* (named wall-time intervals with
attributes and structured events) identified by a shared trace ID.

Design constraints, in order:

- **zero effect on results** — instrumentation only observes values;
  with no active tracer every hook is a no-op costing one ContextVar
  read, and pipeline outputs are bitwise-identical either way;
- **propagation across the worker pool** — per-phase estimation jobs run
  in subprocess, thread, or serial mode (see :mod:`repro.service.pool`);
  :func:`run_traced_job` carries the trace ID and parent span ID into
  the worker, collects spans in a private :class:`Tracer`, and ships
  them back with the job's return value so all three pool kinds report
  into one trace;
- **thread isolation** — the active tracer and span stack live in
  :mod:`contextvars`, so concurrent server requests trace independently
  and a tracer never leaks into an unrelated thread.

Span IDs are hierarchical strings: the main tracer issues ``"1"``,
``"2"``, ...; worker-side tracers prefix theirs (``"w0-2.1"``) so merged
traces never collide.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: identifies the JSON trace format (see :mod:`repro.obs.events`)
TRACE_SCHEMA = "repro.obs/trace/v1"


class _NullSpan:
    """The do-nothing span handed out when tracing is disabled."""

    __slots__ = ()
    span_id = None

    def set_attr(self, name: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


@dataclass
class SpanRecord:
    """One span: a named wall-time interval with attributes and events.

    ``start_us`` is epoch microseconds, but it is *derived*: the tracer
    samples the wall clock exactly once at creation and every span start
    is that anchor plus a ``perf_counter`` offset, so a wall-clock
    adjustment mid-trace can never reorder spans or produce negative
    child offsets.
    """

    span_id: str
    parent_id: Optional[str]
    name: str
    start_us: int  # epoch anchor + perf_counter offset, microseconds
    duration_us: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: perf_counter at start; internal, never serialized
    _t0: float = field(default=0.0, repr=False, compare=False)

    def set_attr(self, name: str, value: Any) -> None:
        self.attrs[name] = value

    def add_event(self, name: str, /, **attrs: Any) -> None:
        self.events.append({"name": name, "attrs": attrs})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "attrs": self.attrs,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start_us=int(data["start_us"]),
            duration_us=int(data.get("duration_us", 0)),
            attrs=dict(data.get("attrs", {})),
            events=list(data.get("events", [])),
        )


class Tracer:
    """Collects the spans of one trace (thread-safe)."""

    def __init__(
        self,
        name: str = "trace",
        trace_id: Optional[str] = None,
        root_parent_id: Optional[str] = None,
        id_prefix: str = "",
        detail: bool = True,
    ):
        self.name = name
        #: record high-volume detail events (per-candidate estimates)?
        #: Explicit ``--trace`` exports want them; always-on production
        #: tracers pass ``detail=False`` so the per-request overhead
        #: stays within the tail-sampling budget.
        self.detail = detail
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: parent assigned to top-level spans (set for worker-side
        #: tracers so their spans nest under the dispatching span)
        self.root_parent_id = root_parent_id
        # Epoch anchor: the wall clock is read exactly once, here.  All
        # span start times are this anchor plus a monotonic
        # perf_counter offset, so they share one consistent timeline
        # even if the system clock steps mid-trace.
        self.created_us = int(time.time() * 1e6)
        self._epoch_pc = time.perf_counter()
        self._id_prefix = id_prefix
        self._counter = itertools.count(1)
        self._prefix_counter = itertools.count(0)
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._events: List[Dict[str, Any]] = []  # trace-level events

    # -- span lifecycle --------------------------------------------------

    def begin(self, name: str, parent_id: Optional[str],
              attrs: Dict[str, Any]) -> SpanRecord:
        # Lock-free: itertools.count.__next__ is atomic under the GIL,
        # and this path runs once per span in always-on production
        # tracing, so it must stay as close to free as possible.
        span_id = f"{self._id_prefix}{next(self._counter):x}"
        t0 = time.perf_counter()
        return SpanRecord(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start_us=self.created_us + max(
                int((t0 - self._epoch_pc) * 1e6), 0
            ),
            attrs=dict(attrs),
            _t0=t0,
        )

    def finish(self, record: SpanRecord) -> None:
        record.duration_us = max(
            int((time.perf_counter() - record._t0) * 1e6), 0
        )
        # list.append is atomic under the GIL; readers copy under the
        # lock, which is safe against concurrent appends.
        self._spans.append(record)

    def add_trace_event(self, name: str, attrs: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append({"name": name, "attrs": attrs})

    def merge(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Fold spans recorded elsewhere (a worker) into this trace."""
        records = [SpanRecord.from_dict(d) for d in span_dicts]
        with self._lock:
            self._spans.extend(records)

    def new_prefix(self) -> str:
        """A fresh span-ID prefix for one worker fan-out (collision-free
        against this tracer's own IDs and previous fan-outs)."""
        with self._lock:
            return f"w{next(self._prefix_counter)}-"

    # -- reading ---------------------------------------------------------

    @property
    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            spans = sorted(self._spans, key=lambda s: (s.start_us, s.span_id))
            return {
                "schema": TRACE_SCHEMA,
                "trace_id": self.trace_id,
                "name": self.name,
                "created_us": self.created_us,
                "spans": [s.to_dict() for s in spans],
                "events": list(self._events),
            }

    def durations_by_name(self) -> Dict[str, List[float]]:
        """Span durations in seconds, grouped by span name (the feed for
        the service's ``span_seconds`` series)."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            for record in self._spans:
                out.setdefault(record.name, []).append(
                    record.duration_us / 1e6
                )
        return out


# ---------------------------------------------------------------------------
# Ambient tracer state.  ContextVars: fresh threads start empty, so a
# tracer never bleeds across server requests or into pool worker threads
# (workers receive the trace explicitly via run_traced_job).

_TRACER: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_tracer", default=None
)
_STACK: ContextVar[Tuple[SpanRecord, ...]] = ContextVar(
    "repro_obs_stack", default=()
)


def active() -> bool:
    """Is a tracer active in this context?  Use to guard event payloads
    that are expensive to build."""
    return _TRACER.get() is not None


def detail_active() -> bool:
    """Is a *detail* tracer active?  Guards high-volume per-item events
    (one per estimation candidate) that explicit ``--trace`` exports
    want but always-on production tracing must not pay for."""
    tracer = _TRACER.get()
    return tracer is not None and tracer.detail


def active_tracer() -> Optional[Tracer]:
    return _TRACER.get()


def current_span_id() -> Optional[str]:
    stack = _STACK.get()
    return stack[-1].span_id if stack else None


@contextmanager
def activate(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Make ``tracer`` the ambient tracer (with an empty span stack) for
    the duration of the block.  Used to carry a request's tracer into
    worker threads and pool jobs where ContextVars do not propagate."""
    tracer_token = _TRACER.set(tracer)
    stack_token = _STACK.set(())
    try:
        yield tracer
    finally:
        _STACK.reset(stack_token)
        _TRACER.reset(tracer_token)


def start_trace(name: str = "repro") -> Tracer:
    """Start collecting spans in this context; returns the tracer."""
    tracer = Tracer(name=name)
    _TRACER.set(tracer)
    _STACK.set(())
    return tracer


def finish_trace() -> Dict[str, Any]:
    """Stop the ambient trace and return its serialized form."""
    tracer = _TRACER.get()
    if tracer is None:
        raise RuntimeError("finish_trace() without start_trace()")
    _TRACER.set(None)
    _STACK.set(())
    return tracer.to_dict()


class _SpanScope:
    """The context manager :func:`span` returns — a plain class rather
    than a ``@contextmanager`` generator because this is the hottest
    instrumentation path under always-on tracing, and the generator
    protocol roughly doubles its cost."""

    __slots__ = ("_name", "_attrs", "_tracer", "_record", "_token")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self._name = name
        self._attrs = attrs
        self._tracer: Optional[Tracer] = None
        self._record: Optional[SpanRecord] = None
        self._token = None

    def __enter__(self):
        tracer = _TRACER.get()
        if tracer is None:
            return NULL_SPAN
        stack = _STACK.get()
        parent = stack[-1].span_id if stack else tracer.root_parent_id
        record = tracer.begin(self._name, parent, self._attrs)
        self._tracer = tracer
        self._record = record
        self._token = _STACK.set(stack + (record,))
        return record

    def __exit__(self, *exc_info) -> bool:
        if self._record is not None:
            _STACK.reset(self._token)
            self._tracer.finish(self._record)
        return False


def span(name: str, /, **attrs: Any) -> _SpanScope:
    """Record a span around the block.  No-op when tracing is off.

    Yields a handle with ``set_attr(name, value)`` / ``add_event(name,
    **attrs)``; with tracing off the handle is :data:`NULL_SPAN`.
    """
    return _SpanScope(name, attrs)


def add_event(name: str, /, **attrs: Any) -> None:
    """Attach a structured event to the current span (or to the trace
    itself when no span is open).  No-op when tracing is off."""
    tracer = _TRACER.get()
    if tracer is None:
        return
    stack = _STACK.get()
    if stack:
        stack[-1].add_event(name, **attrs)
    else:
        tracer.add_trace_event(name, attrs)


# ---------------------------------------------------------------------------
# Worker-side propagation.  The pool replaces each job ``fn(*args)`` with
# ``run_traced_job(trace_id, parent_id, prefix, fn, args)``: module-level
# and built from picklable pieces, so it crosses the process boundary.


def run_traced_job(
    trace_id: str,
    parent_id: Optional[str],
    prefix: str,
    fn: Callable[..., Any],
    args: Tuple,
    detail: bool = True,
) -> Tuple[Any, List[Dict[str, Any]]]:
    """Run one pool job under a private tracer; return ``(value, spans)``.

    The worker-side tracer shares the dispatching trace's ID, roots its
    spans under the dispatching span, prefixes span IDs so the merged
    trace stays collision-free, and inherits the dispatcher's ``detail``
    flag.  Works identically in subprocess, thread, and serial
    (degraded) execution.
    """
    tracer = Tracer(
        name="job",
        trace_id=trace_id,
        root_parent_id=parent_id,
        id_prefix=prefix,
        detail=detail,
    )
    with activate(tracer):
        with span(f"job:{getattr(fn, '__name__', 'fn')}"):
            value = fn(*args)
    return value, [record.to_dict() for record in tracer.spans]
