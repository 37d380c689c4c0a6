"""``repro.obs`` — pipeline-wide observability.

The instrumentation base for the production-service north star: every
framework step (parse, partition, CAG build, conflict resolution, each
ILP solve, distribution enumeration, estimation, selection) reports
hierarchical wall-time spans and structured decision events into one
trace, propagated through the service worker pool in all three pool
kinds.  On top of the span stream:

- :mod:`tracing`    — spans, trace IDs, context propagation, the
  worker-pool job wrapper;
- :mod:`events`     — the JSON trace format and its schema validator;
- :mod:`chrome`     — Chrome trace-event (``chrome://tracing``) export;
- :mod:`provenance` — the ``repro explain`` decision-provenance report;
- :mod:`prometheus` — the ``FAMILIES`` table that declares every
  signal of the ``stats`` snapshot for exposition, and the Prometheus
  text rendering that walks it;
- :mod:`log`        — the ``repro`` logger hierarchy behind
  ``--log-level``;
- :mod:`telemetry`  — the append-only NDJSON event log (rotation,
  crash-tolerant reads) and the process-wide ``emit`` sink registry;
- :mod:`window`     — the one distribution type (a mergeable
  geometric-bucket quantile sketch) and the sliding windows built of it;
- :mod:`slo`        — declarative objectives, error budgets, and
  burn-rate alerting over the windows.

With no active tracer every hook is a no-op and pipeline results are
bitwise-identical to uninstrumented runs.
"""

from .chrome import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from .events import (
    TraceValidationError,
    iter_events,
    load_trace,
    spans_by_name,
    validate_trace,
    write_trace,
)
from .log import LOG_LEVELS, configure_logging, get_logger
from .prometheus import parse_prometheus_text, render_prometheus
from .provenance import build_provenance, format_provenance
from .slo import (
    SLO_SCHEMA,
    Objective,
    SLOReport,
    SLOValidationError,
    evaluate_objectives,
    format_slo_report,
    load_objectives,
    window_from_events,
)
from .telemetry import (
    EVENT_SCHEMA,
    EventLog,
    EventValidationError,
    emit,
    install_sink,
    read_event_log,
    remove_sink,
    validate_event,
    validate_event_log,
)
from .tracing import (
    TRACE_SCHEMA,
    SpanRecord,
    Tracer,
    activate,
    active,
    active_tracer,
    add_event,
    current_span_id,
    finish_trace,
    run_traced_job,
    span,
    start_trace,
)
from .window import LogBucketSketch, WindowedOpStats

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "EventValidationError",
    "LOG_LEVELS",
    "LogBucketSketch",
    "Objective",
    "SLOReport",
    "SLOValidationError",
    "SLO_SCHEMA",
    "SpanRecord",
    "TRACE_SCHEMA",
    "TraceValidationError",
    "Tracer",
    "WindowedOpStats",
    "activate",
    "active",
    "active_tracer",
    "add_event",
    "build_provenance",
    "configure_logging",
    "current_span_id",
    "emit",
    "evaluate_objectives",
    "finish_trace",
    "format_provenance",
    "format_slo_report",
    "get_logger",
    "install_sink",
    "iter_events",
    "load_objectives",
    "load_trace",
    "parse_prometheus_text",
    "read_event_log",
    "remove_sink",
    "render_prometheus",
    "run_traced_job",
    "validate_event",
    "validate_event_log",
    "window_from_events",
    "span",
    "spans_by_name",
    "start_trace",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_trace",
    "write_chrome_trace",
    "write_trace",
]
