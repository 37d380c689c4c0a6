"""Prometheus text exposition of the service observability snapshot.

:func:`render_prometheus` folds everything the service knows — request
counters, per-stage cache hit/miss counts, stage and span wall-time
histograms (with bucket-derived p50/p95/p99 quantile gauges), worker
pool health (active kind, degradation count), and disk cache sizes —
into one text-format registry, the output of both the service's
``metrics`` protocol op and the one-shot ``stats --prometheus`` CLI.

Histogram quantiles cannot ride on the histogram family itself in the
text format, so they are exposed as sibling ``*_quantile`` gauge
families (``repro_stage_seconds_quantile{stage="frontend",
quantile="0.95"}``), computed from the cumulative buckets by
:meth:`repro.service.metrics.Histogram.quantile`.

:func:`parse_prometheus_text` is a small reference parser used by the
tests and the CI smoke job to prove the exposition stays parseable.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: quantiles exposed for every histogram family
QUANTILE_KEYS = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: Any) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Family:
    """One metric family: TYPE/HELP header plus its samples."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: List[Tuple[str, Dict[str, str], Any]] = []

    def add(self, value: Any, suffix: str = "", **labels: Any) -> None:
        self.samples.append(
            (suffix, {k: str(v) for k, v in labels.items()}, value)
        )

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            label_txt = ""
            if labels:
                inner = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
                )
                label_txt = "{" + inner + "}"
            lines.append(
                f"{self.name}{suffix}{label_txt} {_fmt_value(value)}"
            )
        return lines


class Registry:
    """An ordered set of metric families under one namespace."""

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._families: Dict[str, _Family] = {}

    def family(self, name: str, kind: str, help_text: str) -> _Family:
        full = f"{self.namespace}_{name}"
        if full not in self._families:
            self._families[full] = _Family(full, kind, help_text)
        return self._families[full]

    def render(self) -> str:
        lines: List[str] = []
        for family in self._families.values():
            if family.samples:
                lines.extend(family.render())
        return "\n".join(lines) + "\n"


def _add_histogram(
    registry: Registry,
    base: str,
    help_text: str,
    label_name: str,
    label_value: str,
    snap: Mapping[str, Any],
) -> None:
    """Emit one labeled histogram plus its quantile gauges."""
    hist = registry.family(base, "histogram", help_text)
    labels = {label_name: label_value}
    for le, cumulative in snap.get("buckets", {}).items():
        hist.add(cumulative, suffix="_bucket", le=le, **labels)
    hist.add(snap.get("sum", 0.0), suffix="_sum", **labels)
    hist.add(snap.get("count", 0), suffix="_count", **labels)

    quantiles = snap.get("quantiles") or {}
    if quantiles:
        qfam = registry.family(
            f"{base}_quantile", "gauge",
            f"Bucket-derived quantiles of {registry.namespace}_{base}",
        )
        for q_label, key in QUANTILE_KEYS:
            if key in quantiles:
                qfam.add(quantiles[key], quantile=q_label, **labels)


def render_prometheus(
    stats: Mapping[str, Any], namespace: str = "repro"
) -> str:
    """Render a :meth:`LayoutService.stats` snapshot as Prometheus text."""
    registry = Registry(namespace)

    registry.family(
        "uptime_seconds", "gauge", "Seconds since the metrics registry "
        "was created",
    ).add(stats.get("uptime_seconds", 0.0))

    counters = registry.family(
        "counter_total", "counter", "Service event counters",
    )
    for name, value in sorted(stats.get("counters", {}).items()):
        counters.add(value, name=name)

    # Degraded responses get a first-class family (beyond the generic
    # counter row) so dashboards can alert on it directly.
    registry.family(
        "degraded_total", "counter",
        "Requests answered with a labeled-degraded (non-optimal) result",
    ).add(stats.get("counters", {}).get("requests_degraded", 0))
    registry.family(
        "requests_joined_total", "counter",
        "Requests answered by waiting for another's compute of the "
        "same answer key",
    ).add(stats.get("counters", {}).get("requests_joined", 0))

    cache = stats.get("cache", {})
    registry.family(
        "cache_hits_total", "counter", "Stage cache hits (all stages)",
    ).add(cache.get("hits", 0))
    registry.family(
        "cache_misses_total", "counter", "Stage cache misses (all stages)",
    ).add(cache.get("misses", 0))
    per_stage_hits = registry.family(
        "stage_cache_hits_total", "counter", "Stage cache hits per stage",
    )
    per_stage_misses = registry.family(
        "stage_cache_misses_total", "counter",
        "Stage cache misses per stage",
    )
    for stage, slot in sorted(cache.get("per_stage", {}).items()):
        per_stage_hits.add(slot.get("hits", 0), stage=stage)
        per_stage_misses.add(slot.get("misses", 0), stage=stage)
    disk = registry.family(
        "cache_disk_entries", "gauge", "Persisted cache entries per stage",
    )
    for stage, count in sorted(cache.get("disk_entries", {}).items()):
        disk.add(count, stage=stage)

    for stage, snap in sorted(stats.get("stage_seconds", {}).items()):
        _add_histogram(
            registry, "stage_seconds",
            "Wall time of pipeline stages (seconds)",
            "stage", stage, snap,
        )
    for name, snap in sorted(stats.get("span_seconds", {}).items()):
        _add_histogram(
            registry, "span_seconds",
            "Wall time of trace spans (seconds)",
            "span", name, snap,
        )
    for name, snap in sorted(stats.get("bench_seconds", {}).items()):
        _add_histogram(
            registry, "bench_seconds",
            "Wall time of benchmark repetitions (seconds)",
            "bench", name, snap,
        )

    # Sliding-window view: per-op rates and quantiles over the last N
    # minutes (the lifetime histograms above never forget; these do).
    window_ops = (stats.get("window") or {}).get("ops", {})
    if window_ops:
        qps = registry.family(
            "window_qps", "gauge",
            "Requests per second over the sliding window, per op",
        )
        requests = registry.family(
            "window_requests", "gauge",
            "Requests observed inside the sliding window, per op",
        )
        error_rate = registry.family(
            "window_error_rate", "gauge",
            "Error fraction over the sliding window, per op",
        )
        degraded_rate = registry.family(
            "window_degraded_rate", "gauge",
            "Labeled-degraded fraction over the sliding window, per op",
        )
        window_q = registry.family(
            "window_seconds_quantile", "gauge",
            "Sketch-derived latency quantiles over the sliding window",
        )
        for op, entry in sorted(window_ops.items()):
            full = entry.get("full", {})
            qps.add(full.get("qps", 0.0), op=op)
            requests.add(full.get("count", 0), op=op)
            error_rate.add(full.get("error_rate", 0.0), op=op)
            degraded_rate.add(full.get("degraded_rate", 0.0), op=op)
            quantiles = full.get("quantiles") or {}
            for q_label, key in QUANTILE_KEYS:
                if quantiles.get(key) is not None:
                    window_q.add(
                        quantiles[key], op=op, quantile=q_label
                    )

    # Telemetry plumbing health: event-log and trace-sampler counters.
    telemetry = stats.get("telemetry") or {}
    events = telemetry.get("events") or {}
    if events:
        registry.family(
            "eventlog_events_total", "counter",
            "Events written to the structured event log",
        ).add(events.get("events_total", 0))
        registry.family(
            "eventlog_rotations_total", "counter",
            "Event-log segment rotations",
        ).add(events.get("rotations_total", 0))
        registry.family(
            "eventlog_bad_lines_total", "counter",
            "Corrupt or truncated event-log lines skipped on read",
        ).add(events.get("bad_lines_total", 0))
        registry.family(
            "eventlog_syncs_total", "counter",
            "fsyncs of the event log (each covers a burst of lines)",
        ).add(events.get("syncs_total", 0))
        registry.family(
            "eventlog_unsynced_lines", "gauge",
            "Event-log lines flushed to the OS that no fsync covers yet",
        ).add(events.get("unsynced_lines", 0))
    sampler = telemetry.get("sampler") or {}
    if sampler:
        registry.family(
            "trace_kept_total", "counter",
            "Traces retained by the tail sampler",
        ).add(sampler.get("kept_total", 0))
        registry.family(
            "trace_dropped_total", "counter",
            "Traces discarded by the tail sampler",
        ).add(sampler.get("dropped_total", 0))
        reasons = registry.family(
            "trace_kept_by_reason_total", "counter",
            "Traces retained by the tail sampler, per retention reason",
        )
        for reason, count in sorted(
            (sampler.get("kept_by_reason") or {}).items()
        ):
            reasons.add(count, reason=reason)

    gauges = registry.family("gauge", "gauge", "Service gauges")
    for name, value in sorted(stats.get("gauges", {}).items()):
        gauges.add(value, name=name)

    pool = stats.get("pool", {})
    if pool:
        registry.family(
            "pool_degradations_total", "counter",
            "Worker pool degradations (process -> thread -> serial)",
        ).add(pool.get("degradations", 0))
        active = registry.family(
            "pool_active_kind", "gauge",
            "1 for the worker pool kind currently active",
        )
        for kind in ("process", "thread", "serial"):
            active.add(
                1 if pool.get("active_kind") == kind else 0, kind=kind
            )
        if pool.get("max_workers") is not None:
            registry.family(
                "pool_max_workers", "gauge",
                "Configured worker count",
            ).add(pool["max_workers"])

    # Circuit breakers (worker pool + cache disk), when present.
    breakers = []
    if pool.get("breaker"):
        breakers.append(pool["breaker"])
    if cache.get("breaker"):
        breakers.append(cache["breaker"])
    if breakers:
        state = registry.family(
            "breaker_state", "gauge",
            "Circuit breaker state (0 closed, 0.5 half-open, 1 open)",
        )
        opens = registry.family(
            "breaker_opens_total", "counter",
            "Times each circuit breaker tripped open",
        )
        rejections = registry.family(
            "breaker_rejections_total", "counter",
            "Calls rejected by an open circuit breaker",
        )
        state_value = {"closed": 0.0, "half-open": 0.5, "open": 1.0}
        for breaker in breakers:
            name = breaker.get("name", "")
            state.add(
                state_value.get(breaker.get("state"), 0.0), breaker=name
            )
            opens.add(breaker.get("opens_total", 0), breaker=name)
            rejections.add(
                breaker.get("rejections_total", 0), breaker=name
            )
    if cache.get("quarantined_total") is not None:
        registry.family(
            "cache_quarantined_total", "counter",
            "Corrupt cache entries moved aside (self-healing)",
        ).add(cache.get("quarantined_total", 0))

    # Admission control: queue, adaptive limiter, shed/brownout state.
    admission = stats.get("admission") or {}
    if admission:
        limiter = admission.get("limiter") or {}
        registry.family(
            "admission_in_flight", "gauge",
            "Requests currently admitted and executing",
        ).add(admission.get("in_flight", 0))
        registry.family(
            "admission_queue_depth", "gauge",
            "Requests waiting in the bounded admission queue",
        ).add(admission.get("queue_depth", 0))
        registry.family(
            "admission_limit", "gauge",
            "Current AIMD concurrency limit",
        ).add(limiter.get("limit", 0))
        registry.family(
            "admission_draining", "gauge",
            "1 while the service refuses new work to drain",
        ).add(1 if admission.get("draining") else 0)
        registry.family(
            "admission_brownout", "gauge",
            "1 while admitted requests run with a clamped "
            "(labeled-degraded) budget",
        ).add(1 if admission.get("brownout") else 0)
        shed = registry.family(
            "admission_shed_total", "counter",
            "Requests shed with a typed overloaded error, by reason",
        )
        counters = admission.get("counters") or {}
        for reason, key in (
            ("deadline", "shed_deadline"),
            ("queue-full", "shed_queue_full"),
            ("wait-timeout", "shed_wait_timeout"),
        ):
            shed.add(counters.get(key, 0), reason=reason)
        registry.family(
            "admission_rejected_draining_total", "counter",
            "Requests refused with a typed shutting-down error",
        ).add(counters.get("rejected_draining", 0))
        registry.family(
            "admission_brownout_admitted_total", "counter",
            "Requests admitted under brownout (clamped budget)",
        ).add(counters.get("brownout_admitted", 0))
        changes = registry.family(
            "admission_limit_changes_total", "counter",
            "AIMD limit adjustments, by direction",
        )
        changes.add(limiter.get("increases_total", 0),
                    direction="increase")
        changes.add(limiter.get("decreases_total", 0),
                    direction="decrease")

    return registry.render()


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    A deliberately strict reference parser: any non-comment, non-blank
    line that does not match the exposition grammar raises
    ``ValueError``.  Used by tests and the CI smoke job.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _METRIC_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            labels = [(k, v) for k, v in _LABEL_RE.findall(raw)]
        value_txt = match.group("value")
        if value_txt == "NaN":
            value = float("nan")
        elif value_txt in ("+Inf", "-Inf"):
            value = float(value_txt.replace("Inf", "inf"))
        else:
            value = float(value_txt)
        out[(match.group("name"), tuple(labels))] = value
    return out
