"""Error taxonomy of the layout service.

Every error the service can surface to a client derives from
:class:`ServiceError`; the wire protocol reports ``error.kind`` so
clients can distinguish bad requests from capacity problems without
parsing message text.
"""

from __future__ import annotations


class ServiceError(Exception):
    """Base class for all service-level failures."""

    kind = "internal"


class RequestValidationError(ServiceError):
    """The request payload is malformed or references unknown entities."""

    kind = "bad-request"


class JobTimeoutError(ServiceError):
    """A single worker job exceeded its per-job deadline."""

    kind = "timeout"


class ConnectionIdleError(ServiceError):
    """A connection sat idle (or wrote too slowly) past the socket
    timeout; the server replies with this and closes, so a slowloris
    client cannot pin a handler thread forever."""

    kind = "timeout"


class WorkerPoolError(ServiceError):
    """A job kept failing for pool-level (transient) reasons even after
    bounded retries and a serial fallback attempt."""

    kind = "worker-pool"
