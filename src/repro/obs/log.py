"""Logging for server and CLI status output.

Everything user-facing that is *status* (not a computed result) goes
through the ``repro`` logger hierarchy instead of bare ``print``, so a
``--log-level`` flag controls verbosity and service operators get
timestamped, levelled lines on stderr.  Computed results (reports,
JSON responses, Prometheus text) stay on stdout via ``print``.

Every record is stamped with the active trace context
(:class:`TraceContextFilter`): when a tracer is live in the emitting
context the line carries ``[trace_id/span_id]``, so log lines join
against sampled span trees and event-log entries; outside any trace
the field renders as ``-`` and lines look as before.
"""

from __future__ import annotations

import logging
import sys

#: accepted --log-level values
LOG_LEVELS = ("debug", "info", "warning", "error")

_FORMAT = "%(asctime)s %(name)s %(levelname)s [%(trace)s] %(message)s"


class TraceContextFilter(logging.Filter):
    """Attach ``trace_id``/``span_id``/``trace`` fields to every record
    from the active tracing context (``-`` when no trace is live)."""

    def filter(self, record: logging.LogRecord) -> bool:
        from . import tracing

        tracer = tracing.active_tracer()
        if tracer is None:
            record.trace_id = ""
            record.span_id = ""
            record.trace = "-"
        else:
            record.trace_id = tracer.trace_id
            span_id = tracing.current_span_id()
            record.span_id = span_id or ""
            record.trace = (
                f"{tracer.trace_id}/{span_id}" if span_id
                else tracer.trace_id
            )
        return True


def get_logger(name: str = "repro") -> logging.Logger:
    """The named logger under the ``repro`` hierarchy."""
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


def configure_logging(level: str = "info") -> logging.Logger:
    """Install one stderr handler on the ``repro`` root logger.

    Idempotent: repeated calls adjust the level instead of stacking
    handlers (the CLI may be invoked many times in one process, e.g.
    from tests).
    """
    if level not in LOG_LEVELS:
        raise ValueError(
            f"log level must be one of {LOG_LEVELS}, got {level!r}"
        )
    root = logging.getLogger("repro")
    root.setLevel(getattr(logging, level.upper()))
    root.propagate = False
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT))
        # On the handler, not the logger: logger-level filters do not
        # apply to records propagated up from child loggers.
        handler.addFilter(TraceContextFilter())
        root.addHandler(handler)
    return root
