"""Typed errors of the resilience layer.

Every class carries a ``kind`` attribute, the same convention as
:mod:`repro.service.errors`: the wire protocol reports ``error.kind``
so clients (and the chaos invariant checker) can distinguish a clean
typed failure from an unexpected internal crash without parsing text.
"""

from __future__ import annotations


class ResilienceError(Exception):
    """Base class for resilience-layer failures."""

    kind = "resilience"


class InjectedFault(ResilienceError):
    """A deterministically injected fault fired at a registered site."""

    kind = "injected-fault"

    def __init__(self, site: str, detail: str = ""):
        self.site = site
        self.detail = detail
        message = f"injected fault at {site!r}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class DeadlineExceeded(ResilienceError):
    """A request's time budget ran out before the work completed."""

    kind = "deadline"


class RequestTimeout(ResilienceError):
    """The request's hard limit passed; raised on the request's own
    thread at the cooperative checkpoint (``stopped_at``) that saw it."""

    kind = "timeout"

    def __init__(self, message: str, stopped_at: str):
        super().__init__(message)
        self.stopped_at = stopped_at


class CorruptStateError(ResilienceError):
    """A persisted artifact failed its checksum or structural check."""

    kind = "corrupt-state"


class OverloadedError(ResilienceError):
    """Admission control shed the request before any work started.

    Carries ``retry_after_s`` — the controller's prediction of when
    capacity frees up — which the wire protocol surfaces so well-behaved
    clients (and :class:`repro.service.protocol.RetryPolicy`) back off
    instead of hammering an overloaded server.
    """

    kind = "overloaded"

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = max(round(float(retry_after_s), 4), 0.0)


class ShuttingDownError(ResilienceError):
    """The service is draining: in-flight work finishes, new work is
    refused with this typed rejection."""

    kind = "shutting-down"
