"""The layout service: a cached analysis server, one thread a request.

The paper frames the framework as an interactive data layout assistant;
this package turns the one-shot CLI pipeline into a long-lived service:

- :mod:`server`   — the :class:`LayoutService` engine and TCP front end;
- :mod:`cache`    — content-addressed result cache (one entry a reply);
- :mod:`pool`     — opt-in worker pool (default ``serial``: unused);
- :mod:`jobs`     — the pure-function job boundary its workers execute;
- :mod:`metrics`  — counters, cache stats, wall-time series, and
  per-op sliding windows;
- :mod:`protocol` — JSON request/response schemas plus client-side
  retry backoff honoring ``retry_after_s``;
- :mod:`telemetry`— the service's event log + tail-based trace sampler;
- :mod:`loadtest` — the open-loop load generator behind
  ``repro loadtest`` (fixed arrival schedule, so overload is measured
  instead of hidden by a closed loop);
- :mod:`errors`   — the error taxonomy surfaced to clients.
"""

# only what bench/servicerun.py imports from here, until bench/ can change
from .cache import StageCache, StageKeys
from .metrics import Metrics
from .pool import WorkerPool
from .protocol import LayoutRequest, LayoutResponse
from .server import LayoutService
from .telemetry import ServiceTelemetry, TailSampler
