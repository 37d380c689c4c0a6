"""``repro.obs`` — pipeline-wide observability.

The instrumentation base for the production-service north star: every
framework step (parse, partition, CAG build, conflict resolution, each
ILP solve, distribution enumeration, estimation, selection) reports a
hierarchical wall-time span with summary attributes (model sizes,
presolve and elimination counters) into one trace, propagated through
the service worker pool in all three pool kinds.  Decisions are not
narrated: ``repro explain`` reads them off the result.  The one span
event of the pipeline marks a departure from the plan
(``resilience.degraded``); operational events (cache, deadline,
admission, injected faults) go through :func:`telemetry.emit` to the
service's event log.  On top of the span stream:

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
